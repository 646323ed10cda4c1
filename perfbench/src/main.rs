//! The DarkDNS end-to-end benchmark: how fast a registration published
//! at the root becomes visible through a relay to an edge lookup and to
//! a leaf's zone-NRD log, and how fast the edge answers lookups.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rzu-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer split with `--trace 1`. `NOTES.md` says
//! what each workload and metric is for and how they are timed.

mod gen;
mod stats;
mod topo;
mod trace;

use darkdns_broker::{Broker, ShardStats, TransportConfig};
use darkdns_dns::wire::LookupQuery;
use darkdns_dns::{decode_delta_push, encode_delta_push, Serial, Zone, ZoneDelta, ZoneSnapshot};
use darkdns_edge::{EdgeClient, EdgeIndexConfig};
use darkdns_registry::tld::TldId;
use darkdns_sim::time::SimTime;
use gen::{
    Expect, Generator, ReadBatch, Workload, BATCH, LADDER, SOAK_RATE, WORKLOADS, WRITE_PHASE_READS,
};
use stats::{mean, median, ms, percentile, process_cpu_ns, summarize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use topo::{Advance, Topology};
use trace::Span;

/// Steady pushes and reads after the warm-up and before timing starts.
const SETTLE: Duration = Duration::from_secs(1);
/// How long after the window a push may take to become visible before
/// it counts as failed.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(10);
/// The lookup latency limit the knee is measured against: a ladder
/// rung passes while its batch p90, timed from the due time, stays
/// within it.
const LOOKUP_LIMIT_US: f64 = 20_000.0;
/// A rung also fails when it completes fewer of its due batches than
/// this share: its backlog is growing.
const COMPLETION_FLOOR: f64 = 0.95;
/// How often the resident set is sampled through the window.
const RSS_EVERY: Duration = Duration::from_millis(20);
/// Read batches in the seeded pool the reader cycles through.
const POOL: usize = 256;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = *WORKLOADS.iter().find(|w| w.name == name).ok_or(format!(
        "unknown workload {name}; known: rzu-small, rzu-bigzone, edge-lookup"
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The run's clock: settle from `start`, the write phase from `window`
/// to `write_end`, the soak at [`SOAK_RATE`] to `soak_end`, then
/// `passes` climbs of the read ladder in equal slots up to `end`.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    window: Instant,
    write_end: Instant,
    soak_end: Instant,
    end: Instant,
    /// Ladder slots: passes × rungs.
    slots: usize,
}

/// Read segment 0 is the settle plus the write phase, 1 the soak, and
/// the ladder slots follow.
const SOAK: usize = 1;

impl Schedule {
    fn new(start: Instant, seconds: f64, w: &Workload) -> Self {
        let window = start + SETTLE;
        let write_end = window + Duration::from_secs_f64(seconds * w.write_share);
        let soak_end = write_end + Duration::from_secs_f64(seconds * w.soak_share);
        let end = window + Duration::from_secs_f64(seconds);
        Schedule {
            start,
            window,
            write_end,
            soak_end,
            end,
            slots: w.ladder_passes * LADDER.len(),
        }
    }

    /// The last read segment.
    fn last(&self) -> usize {
        SOAK + self.slots
    }

    /// Rung `rung` of ladder pass `pass` as a read segment.
    fn ladder_segment(pass: usize, rung: usize) -> usize {
        SOAK + 1 + pass * LADDER.len() + rung
    }

    /// Read segment `i` as (offered batches/s, start, end): the write
    /// phase at [`WRITE_PHASE_READS`], the soak at [`SOAK_RATE`], then
    /// the ladder pass after pass.
    fn segment(&self, i: usize) -> (f64, Instant, Instant) {
        match i {
            0 => (WRITE_PHASE_READS, self.start, self.write_end),
            SOAK => (SOAK_RATE, self.write_end, self.soak_end),
            _ => {
                let slot = (self.end - self.soak_end) / self.slots as u32;
                let from = self.soak_end + slot * (i - SOAK - 1) as u32;
                (LADDER[(i - SOAK - 1) % LADDER.len()], from, from + slot)
            }
        }
    }

    /// When the push after one due at `due` is due on a workload with
    /// pushes beside its reads: at the write-phase spacing through the
    /// soak, then in the middle of every ladder slot; `end` when there
    /// is none.
    fn next_read_push(&self, due: Instant, spacing: Duration) -> Instant {
        if due + spacing < self.soak_end {
            return due + spacing;
        }
        (SOAK + 1..=self.last())
            .map(|i| {
                let (_, from, to) = self.segment(i);
                from + (to - from) / 2
            })
            .find(|&m| m > due)
            .unwrap_or(self.end)
    }
}

/// A push waiting for the edge to serve it.
struct Probe {
    id: usize,
    tld: usize,
    serial: u32,
    rows: Vec<(LookupQuery, Expect)>,
}

#[derive(Default)]
struct Shared {
    pending: Mutex<Vec<Probe>>,
    publisher_done: AtomicBool,
}

struct PushRec {
    tld: usize,
    serial: u32,
    due: Instant,
    start: Instant,
    end: Instant,
}

struct PublisherOut {
    gen: Generator,
    pushes: Vec<PushRec>,
    /// Traced runs: every delta, for the in-process layer replays.
    deltas: Vec<(usize, ZoneDelta, Serial, Serial, SimTime)>,
}

/// Open-loop publisher: pushes are due every `1 / rate` seconds through
/// the write phase and, when `read_pushes` is set, through the soak and
/// then in the middle of every ladder slot; the thread sleeps until each
/// due time and each push is timed from it.
fn publisher(
    sched: Schedule,
    rate: f64,
    read_pushes: bool,
    mut gen: Generator,
    root: Broker,
    shared: Arc<Shared>,
    traced: bool,
) -> PublisherOut {
    let mut pushes = Vec::new();
    let mut deltas = Vec::new();
    let mut due = sched.start;
    for k in 0.. {
        if due >= sched.end {
            break;
        }
        let push = gen.next();
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if traced {
            deltas.push((
                push.tld,
                push.delta.clone(),
                push.from,
                push.to,
                push.pushed_at,
            ));
        }
        let start = Instant::now();
        root.publish(TldId(push.tld as u16), push.delta, push.to, push.pushed_at);
        let end = Instant::now();
        pushes.push(PushRec {
            tld: push.tld,
            serial: push.to.get(),
            due,
            start,
            end,
        });
        shared
            .pending
            .lock()
            .expect("pending lock poisoned")
            .push(Probe {
                id: k,
                tld: push.tld,
                serial: push.to.get(),
                rows: push.probe,
            });
        let spacing = Duration::from_secs_f64(1.0 / rate);
        due = if due + spacing < sched.write_end {
            due + spacing
        } else if read_pushes {
            sched.next_read_push(due, spacing)
        } else {
            break;
        };
    }
    shared.publisher_done.store(true, Ordering::SeqCst);
    PublisherOut {
        gen,
        pushes,
        deltas,
    }
}

struct ReadRec {
    segment: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
}

#[derive(Default)]
struct ReaderOut {
    /// (push id, answer time) for every push the edge answered for.
    answers: Vec<(usize, Instant)>,
    reads: Vec<ReadRec>,
    /// Due read batches never sent because their rung ended first.
    missed: Vec<usize>,
    read_failures: usize,
    probe_failures: usize,
    errors: Vec<String>,
    spans: Vec<Span>,
}

/// The lookup generator: answers pushes once the edge serves them
/// (probe connection) and runs the open-loop read schedule (read
/// connection). It blocks on the edge's progress between due times.
fn reader(
    sched: Schedule,
    edge: std::net::SocketAddr,
    progress: &topo::Progress,
    shared: &Shared,
    pool: &[ReadBatch],
    traced: bool,
) -> ReaderOut {
    let mut out = ReaderOut {
        missed: vec![0; sched.last() + 1],
        ..ReaderOut::default()
    };
    let dial = |what: &str| {
        let mut client =
            EdgeClient::connect_tcp(edge).unwrap_or_else(|e| panic!("{what} dial: {e}"));
        client
            .set_recv_timeout(Some(Duration::from_secs(5)))
            .expect("set lookup timeout");
        client
    };
    let mut probe_client = dial("probe");
    let mut read_client = dial("read");
    let mut segment = 0;
    let (mut rate, mut seg_start, mut seg_end) = sched.segment(0);
    let mut j = 0u32;
    let mut cursor = 0;
    let mut state = progress.get();
    loop {
        serve_probes(&state, &mut probe_client, shared, &mut out, traced);
        let now = Instant::now();
        if now < sched.end {
            loop {
                let due = seg_start + Duration::from_secs_f64(j as f64 / rate);
                if due >= seg_end || Instant::now() >= seg_end {
                    if due < seg_end {
                        let left = (seg_end - due).as_secs_f64() * rate;
                        out.missed[segment] += left.ceil() as usize;
                    }
                    if segment == sched.last() {
                        break;
                    }
                    segment += 1;
                    (rate, seg_start, seg_end) = sched.segment(segment);
                    j = 0;
                    continue;
                }
                if due > Instant::now() {
                    break;
                }
                let batch = &pool[cursor % pool.len()];
                cursor += 1;
                let sent = Instant::now();
                match read_client.lookup(&batch.queries) {
                    Ok(resp) if gen::read_ok(batch, &resp.answers) => {}
                    Ok(_) => {
                        out.read_failures += 1;
                        out.errors.push("read batch answered wrongly".into());
                    }
                    Err(e) => {
                        out.read_failures += 1;
                        out.errors.push(format!("read batch failed: {e:?}"));
                    }
                }
                out.reads.push(ReadRec {
                    segment,
                    due,
                    sent,
                    done: Instant::now(),
                });
                j += 1;
            }
        } else {
            let drained = shared
                .pending
                .lock()
                .expect("pending lock poisoned")
                .is_empty();
            if shared.publisher_done.load(Ordering::SeqCst) && drained {
                break;
            }
            if now >= sched.end + VISIBLE_DEADLINE {
                break;
            }
        }
        let now = Instant::now();
        let until = if now < sched.end {
            (seg_start + Duration::from_secs_f64(j as f64 / rate)).min(seg_end)
        } else {
            now + Duration::from_millis(50)
        };
        state = progress.wait(state.changes, until);
    }
    out
}

/// Look up every pending push the edge now serves, checking each row
/// against the generator's model at the answering serial.
fn serve_probes(
    state: &topo::ProgressState,
    client: &mut EdgeClient,
    shared: &Shared,
    out: &mut ReaderOut,
    traced: bool,
) {
    let ready: Vec<Probe> = {
        let mut pending = shared.pending.lock().expect("pending lock poisoned");
        let (ready, wait): (Vec<Probe>, Vec<Probe>) = pending
            .drain(..)
            .partition(|p| state.edge[p.tld].is_some_and(|s| s >= p.serial));
        *pending = wait;
        ready
    };
    for chunk in ready.chunks(BATCH / 8) {
        let queries: Vec<LookupQuery> = chunk
            .iter()
            .flat_map(|p| p.rows.iter().map(|r| r.0))
            .collect();
        let sent = Instant::now();
        let resp = client.lookup(&queries);
        let done = Instant::now();
        let Ok(resp) = resp else {
            out.probe_failures += chunk.len();
            out.errors
                .push(format!("probe lookup failed: {:?}", resp.err()));
            continue;
        };
        let mut answers = resp.answers.iter();
        for p in chunk {
            let mut ok = true;
            for (_, expect) in &p.rows {
                let answer = answers.next().expect("one answer per query");
                let serial = answer.serial.map_or(0, Serial::get);
                ok &= serial >= p.serial && gen::probe_ok(expect, answer, serial);
            }
            if ok {
                out.answers.push((p.id, done));
            } else {
                out.probe_failures += 1;
                out.errors
                    .push(format!("push t{}#{} answered wrongly", p.tld, p.serial));
            }
            if traced {
                out.spans.push(Span {
                    name: "edge.client.lookup",
                    id: (p.tld as u16, p.serial),
                    parent: Some("push"),
                    start: sent,
                    end: done,
                });
            }
        }
    }
}

/// Publish the stream's folded first hours, which fill the edge NRD
/// window to its cap, and wait until every tier has applied them.
fn warm(topo: &Topology, gen: &mut Generator) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    for push in gen.warm() {
        topo.root
            .publish(TldId(push.tld as u16), push.delta, push.to, push.pushed_at);
    }
    if !topo.wait_for(&gen.serials(), deadline) {
        return Err("warm-up pushes never reached the edge and the leaf".into());
    }
    let cap = EdgeIndexConfig::default().nrd_capacity;
    let len = topo.index.load().nrd_len();
    if len < cap {
        return Err(format!(
            "the warm-up filled the edge NRD window to {len} of {cap}"
        ));
    }
    Ok(())
}

/// One instance: the topology, bootstrapped, warmed, and carrying load.
struct Instance {
    topo: Topology,
    sched: Schedule,
    publisher: JoinHandle<PublisherOut>,
    reader: JoinHandle<ReaderOut>,
    setup_s: f64,
    /// Traced instances: root heads when the load started, where the
    /// layer replays start.
    heads: Vec<ZoneSnapshot>,
}

/// Build, bootstrap and warm one topology, then start its load. Set-up
/// time runs from the build to the end of the warm-up; the settle that
/// follows is not part of it.
fn start_instance(
    pristine: &Generator,
    w: &Workload,
    seconds: f64,
    traced: bool,
    pool: &Arc<Vec<ReadBatch>>,
) -> Result<Instance, String> {
    let mut gen = pristine.clone();
    let snaps = gen.snapshots();
    let t0 = Instant::now();
    // The root holds the only copy of the initial zones from here on.
    let topo = Topology::build(&snaps, traced)?;
    drop(snaps);
    warm(&topo, &mut gen)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let heads = if traced {
        (0..w.shards)
            .map(|t| topo.root.head(TldId(t as u16)).expect("shard"))
            .collect()
    } else {
        Vec::new()
    };
    let sched = Schedule::new(Instant::now(), seconds, w);
    let shared = Arc::new(Shared::default());
    let publisher = {
        let (root, shared) = (topo.root.clone(), Arc::clone(&shared));
        let (rate, read_pushes) = (w.push_rate, w.read_pushes);
        std::thread::spawn(move || publisher(sched, rate, read_pushes, gen, root, shared, traced))
    };
    let reader = {
        let (progress, shared, pool) = (
            Arc::clone(&topo.progress),
            Arc::clone(&shared),
            Arc::clone(pool),
        );
        let edge = topo.edge_addr;
        std::thread::spawn(move || reader(sched, edge, &progress, &shared, &pool, traced))
    };
    sleep_until(sched.window);
    Ok(Instance {
        topo,
        sched,
        publisher,
        reader,
        setup_s,
        heads,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Counters sampled at the window's edges.
struct Sample {
    at: Instant,
    cpu_ns: u64,
    shards: Vec<ShardStats>,
    root: darkdns_broker::transport::ServerStats,
    relay_server: darkdns_broker::transport::ServerStats,
    relay: darkdns_broker::transport::RelayStats,
    epoch: u64,
    edge_busy: (u64, u64),
    leaf_busy: (u64, u64),
    observers_cpu_ns: u64,
}

fn sample(topo: &Topology) -> Sample {
    Sample {
        at: Instant::now(),
        cpu_ns: process_cpu_ns(),
        shards: topo.root.all_shard_stats(),
        root: topo.root_server.stats(),
        relay_server: topo.relay_server.stats(),
        relay: topo.relay.stats(),
        epoch: topo.index.epoch(),
        edge_busy: topo.busy_edge.read(),
        leaf_busy: topo.busy_leaf.read(),
        observers_cpu_ns: topo.busy_observers.read().0,
    }
}

/// First time a consumer reached `serial` (or later) on `tld`.
fn reached(advances: &[Advance], shards: usize) -> impl Fn(usize, u32) -> Option<Instant> {
    let mut per: Vec<Vec<(u32, Instant)>> = vec![Vec::new(); shards];
    for a in advances {
        per[a.tld].push((a.serial, a.at));
    }
    move |tld, serial| {
        let list = &per[tld];
        let i = list.partition_point(|&(s, _)| s < serial);
        list.get(i).map(|&(_, at)| at)
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind a timing, and the tail's percentile.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// A timing reported as the p50 and the tail of all its samples.
fn timing(
    p50: &'static str,
    tail: &'static str,
    samples: &[f64],
    unit: &'static str,
) -> [Metric; 2] {
    let s = summarize(samples);
    let note = format!("n={}", s.n);
    [
        Metric {
            name: p50,
            value: s.p50,
            unit,
            note: note.clone(),
        },
        Metric {
            name: tail,
            value: s.tail,
            unit,
            note: format!("{note}, tail=p{:.1}", s.tail_pct),
        },
    ]
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// What one instance (a set-up and its share of the window) measured.
struct Measured {
    setup_s: f64,
    /// Write-phase pushes in due order, ms.
    p2a: Vec<f64>,
    p2n: Vec<f64>,
    delivered_per_s: f64,
    joins: Vec<f64>,
    /// Largest resident set sampled through this instance's window.
    rss_mb: f64,
    knees: Vec<f64>,
    /// Middle-rung read batches in due order, us.
    mids: Vec<f64>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
    /// Traced instances: the per-layer split.
    layers: Option<Vec<Metric>>,
}

/// Run the workload as `instances` independent set-ups, each measured
/// for its share of `--seconds`. Timings pool the samples of every
/// instance; set-up, delivery rate and the knee are medians over
/// instances or ladder passes.
fn run(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    let secs = args.seconds as f64 / w.instances as f64;
    // Pushes one instance offers: the settle and the write phase at the
    // workload's rate, then, if the reads have pushes beside them, the
    // soak at the same rate and one per ladder slot.
    let (at_rate, slots) = if w.read_pushes {
        (w.write_share + w.soak_share, w.ladder_passes * LADDER.len())
    } else {
        (w.write_share, 0)
    };
    let need = (w.push_rate * (SETTLE.as_secs_f64() + secs * at_rate)).ceil() as usize + slots + 2;
    let t0 = Instant::now();
    let pristine = gen::fleet(w, args.seed, need)?;
    // Hand the generator's scratch memory back to the kernel, so the
    // resident set the window samples is the program's.
    stats::release_free_memory();
    let inputs_s = t0.elapsed().as_secs_f64();
    let inputs_mb = stats::rss_mb();
    let pool = Arc::new(gen::read_pool(w.shards, args.seed, POOL));
    let mut runs = Vec::new();
    for i in 0..w.instances {
        let traced = args.trace && i + 1 == w.instances;
        let s = start_instance(&pristine, w, secs, traced, &pool)?;
        runs.push(measure(s, args, &pool, i)?);
    }
    let traced = runs.last_mut().and_then(|m| m.layers.take());
    let all = |f: fn(&Measured) -> &Vec<f64>| {
        runs.iter()
            .flat_map(|m| f(m).iter().copied())
            .collect::<Vec<_>>()
    };
    let each = |f: fn(&Measured) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    let setups = each(|m| m.setup_s);
    let joins: Vec<f64> = runs.iter().flat_map(|m| m.joins.iter().copied()).collect();
    let knees: Vec<f64> = runs.iter().flat_map(|m| m.knees.iter().copied()).collect();
    let mut metrics = Vec::new();
    let mut notes = vec![
        format!("inputs generated in {inputs_s:.3} s; {inputs_mb:.1} MB resident after"),
        pristine.describe(),
    ];
    if let Some(layers) = traced {
        metrics = layers;
    } else {
        metrics.push(Metric {
            note: format!("n={} set-ups", setups.len()),
            ..metric("setup_s", median(&setups), "s")
        });
        metrics.extend(timing(
            "publish_to_answer_p50_ms",
            "publish_to_answer_tail_ms",
            &all(|m| &m.p2a),
            "ms",
        ));
        metrics.extend(timing(
            "publish_to_nrd_p50_ms",
            "publish_to_nrd_tail_ms",
            &all(|m| &m.p2n),
            "ms",
        ));
        metrics.push(metric(
            "delivered_pushes_per_s",
            median(&each(|m| m.delivered_per_s)),
            "1/s",
        ));
        // The mean, not the median: join times cluster in two modes a
        // few writer ticks apart, and a median of a dozen joins jumps
        // between them from run to run.
        metrics.push(Metric {
            note: format!("n={} joins, mean", joins.len()),
            ..metric("bootstrap_s", mean(&joins), "s")
        });
        // Each instance's soak gives a p50 and a p90; the run reports
        // their medians over instances, like the set-up. The lookup tail
        // as `timing` takes it, about the p99.5 of the soak's batches, is
        // decided by a few host stalls: it is printed, and traced runs
        // report it, but it is not bounded (NOTES.md says why).
        let mids = all(|m| &m.mids);
        let soak = summarize(&mids);
        let n = format!(
            "n={} instances of {} batches",
            runs.len(),
            soak.n / runs.len()
        );
        metrics.push(Metric {
            note: n.clone(),
            ..metric("lookup_p50_us", median(&each(|m| median(&m.mids))), "us")
        });
        metrics.push(Metric {
            note: n,
            ..metric(
                "lookup_p90_us",
                median(&each(|m| percentile(&m.mids, 0.9))),
                "us",
            )
        });
        notes.push(format!(
            "lookup tail (not bounded): {:.1} us (n={}, tail=p{:.1})",
            soak.tail, soak.n, soak.tail_pct
        ));
        // The mean, not the median: a pass's knee lands near one of two
        // rungs, by whether the edge kept up with the rung just below its
        // capacity, and a median of a few passes jumps between them.
        metrics.push(Metric {
            note: format!("n={} ladder passes, mean", knees.len()),
            ..metric("lookup_knee_names_per_s", mean(&knees), "names/s")
        });
        // The first instance's window: one topology, before the checks
        // build their own copies of the zones.
        metrics.push(Metric {
            note: "largest VmRSS sampled through the first window".into(),
            ..metric("rss_peak_mb", runs[0].rss_mb, "MB")
        });
    }
    let attempted = runs.iter().map(|m| m.attempted).sum();
    let failed = runs.iter().map(|m| m.failed).sum();
    notes.extend(runs.into_iter().flat_map(|m| m.notes));
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Carry one instance through its window, drain it, join fresh leaves,
/// check every output, and summarise what it measured.
fn measure(
    s: Instance,
    args: &Args,
    pool: &[ReadBatch],
    instance: usize,
) -> Result<Measured, String> {
    let w = &args.workload;
    let tick = TransportConfig::default().writer_tick;
    let sched = s.sched;
    let before = sample(&s.topo);
    let mut rss_mb: f64 = 0.0;
    loop {
        rss_mb = rss_mb.max(stats::rss_mb());
        let now = Instant::now();
        if now >= sched.end {
            break;
        }
        std::thread::sleep(RSS_EVERY.min(sched.end - now));
    }
    let after = sample(&s.topo);
    let published = s.publisher.join().map_err(|_| "publisher panicked")?;
    let read = s.reader.join().map_err(|_| "reader panicked")?;
    let topo = s.topo;
    let mut notes: Vec<String> = read.errors.iter().take(5).cloned().collect();
    notes.push(format!("instance {instance}: set-up {:.3} s", s.setup_s));
    let mut failures: Vec<String> = Vec::new();
    let mut checks = 0;
    let mut check = |ok: bool, what: String| {
        checks += 1;
        if !ok {
            failures.push(format!("check failed: {what}"));
        }
    };

    // Quiesce, then the fresh leaf joins.
    let heads_serials = published.gen.serials();
    let quiet = topo.wait_for(&heads_serials, Instant::now() + Duration::from_secs(60));
    check(quiet, "edge and leaf reach the root head".into());
    let joins: Vec<topo::Join> = (0..w.joins).map(|_| topo.join_leaf()).collect();
    for (i, j) in joins.iter().enumerate() {
        check(j.ok, format!("fresh leaf {i} bootstraps to the root head"));
    }
    let join_secs: Vec<String> = joins.iter().map(|j| format!("{:.3} s", j.secs)).collect();
    notes.push(format!(
        "instance {instance}: fresh leaf joins took {}",
        join_secs.join(", ")
    ));
    let traced = topo.traced();
    let answer_us = if traced {
        answer_us_per_batch(&topo, pool)
    } else {
        0.0
    };

    // Output checks against the root head and the generator's model.
    let epoch = topo.index.load();
    let root = topo.root.clone();
    let relay_broker = topo.relay_server.broker().clone();
    let relay_stats = topo.relay.stats();
    let edge_stats = topo.edge_server.stats();
    let finished = topo.finish();
    for t in 0..w.shards {
        let tld = TldId(t as u16);
        let head = root.head(tld).expect("root has every shard");
        check(
            head.len() == published.gen.expected_len(t),
            format!("t{t} root head matches the model"),
        );
        check(
            relay_broker.head(tld).map(|h| h.serial()) == Some(head.serial()),
            format!("t{t} relay at the root head"),
        );
        let want = Zone::from_snapshot(&head);
        for (who, outcome) in [("leaf", &finished.leaf), ("edge", &finished.edge)] {
            let got = outcome.snapshots[t].as_ref().map(Zone::from_snapshot);
            check(
                got.as_ref() == Some(&want),
                format!("t{t} {who} view equals the root head"),
            );
        }
        check(
            epoch.serial(tld) == Some(head.serial()),
            format!("t{t} edge epoch at the root head"),
        );
        check(
            head.domains().all(|d| epoch.contains(tld, d)),
            format!("t{t} edge epoch serves every name"),
        );
    }
    let mut nrd = finished.leaf.nrd.clone();
    let mut added = published.gen.all_added();
    nrd.sort_unstable();
    added.sort_unstable();
    check(
        nrd == added,
        "leaf NRD log holds every registered name, short-lived ones too".into(),
    );
    check(finished.leaf.resyncs == 0, "leaf never resynced".into());
    check(
        finished.edge.resyncs == 0,
        "edge feed never resynced".into(),
    );
    check(relay_stats.resyncs == 0, "relay never resynced".into());
    check(
        edge_stats.bad_frames == 0,
        "edge server saw no bad frames".into(),
    );

    // Pushes of the write phase: publish→answer and publish→NRD.
    let shards = w.shards;
    let answered: HashMap<usize, Instant> = read.answers.iter().copied().collect();
    let at_leaf = reached(&finished.leaf.advances, shards);
    let mut p2a = Vec::new();
    let mut p2n = Vec::new();
    let mut lost = 0;
    let mut delivered: Vec<Instant> = Vec::new();
    let push_end = sched.write_end;
    let in_window = |t: Instant| t >= sched.window && t < push_end;
    for (id, p) in published.pushes.iter().enumerate() {
        let answer = answered.get(&id).copied();
        let nrd = at_leaf(p.tld, p.serial);
        if let (Some(a), Some(n)) = (answer, nrd) {
            if in_window(a.max(n)) {
                delivered.push(a.max(n));
            }
        }
        if p.due < sched.window {
            continue;
        }
        match (answer, nrd) {
            (Some(a), Some(n)) => {
                if p.due < push_end {
                    p2a.push(ms(a - p.due));
                    p2n.push(ms(n - p.due));
                }
            }
            _ => lost += 1,
        }
    }
    delivered.sort();
    let delivered_per_s = match (delivered.first(), delivered.last()) {
        (Some(&first), Some(&last)) if last > first => {
            (delivered.len() - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    };
    let window_pushes = published
        .pushes
        .iter()
        .filter(|p| p.due >= sched.window)
        .count();
    let tick_bound = p2a.iter().filter(|&&v| v >= ms(tick)).count();
    notes.push(format!(
        "instance {instance}: transport.tick_bound_pushes {tick_bound} of {} (publish->answer >= writer_tick {} ms)",
        p2a.len(),
        ms(tick)
    ));
    check(
        lost == 0,
        format!("{lost} pushes never became visible at both the edge and the leaf"),
    );

    // The soak: lookup latency.
    let mids: Vec<f64> = read
        .reads
        .iter()
        .filter(|r| r.segment == SOAK)
        .map(|r| (r.done - r.due).as_secs_f64() * 1e6)
        .collect();
    let soak = summarize(&mids);
    notes.push(format!(
        "instance {instance} soak: offered {:.0} names/s, p50 {:.1} us, p90 {:.1} us, tail {:.1} us (n={} p{:.1})",
        SOAK_RATE * BATCH as f64,
        soak.p50,
        percentile(&mids, 0.9),
        soak.tail,
        soak.n,
        soak.tail_pct
    ));

    // The read ladder, pass by pass.
    let mut knees = Vec::new();
    for pass in 0..w.ladder_passes {
        let mut rungs = Vec::new();
        for (rung, rate) in LADDER.iter().enumerate() {
            let seg = Schedule::ladder_segment(pass, rung);
            let (_, from, to) = sched.segment(seg);
            let recs: Vec<&ReadRec> = read.reads.iter().filter(|r| r.segment == seg).collect();
            let lat: Vec<f64> = recs
                .iter()
                .map(|r| (r.done - r.due).as_secs_f64() * 1e6)
                .collect();
            let due = recs.len() + read.missed[seg];
            // Rates over the measured span, from the rung's start to its
            // last answer.
            let span = recs
                .last()
                .map_or(to, |r| r.done)
                .duration_since(from)
                .as_secs_f64();
            let names_per_s = (recs.len() * BATCH) as f64 / span;
            let p90 = percentile(&lat, 0.9);
            let pass_ok =
                p90 <= LOOKUP_LIMIT_US && recs.len() as f64 >= COMPLETION_FLOOR * due as f64;
            let good = lat.iter().filter(|&&us| us <= LOOKUP_LIMIT_US).count();
            let goodput = (good * BATCH) as f64 / span;
            notes.push(format!(
                "instance {instance} ladder pass {pass} rung {rung}: offered {:.0} names/s, done {names_per_s:.0}, p50 {:.1} us, p90 {p90:.1} us (n={}){}",
                rate * BATCH as f64,
                median(&lat),
                lat.len(),
                if pass_ok { "" } else { ", over the limit" }
            ));
            rungs.push(Rung {
                offered: rate * BATCH as f64,
                goodput,
                in_time: good as f64 / due.max(1) as f64,
                ok: pass_ok,
            });
        }
        let knee = knee_names_per_s(&rungs);
        notes.push(format!(
            "instance {instance} ladder pass {pass}: knee {knee:.0} names/s"
        ));
        knees.push(knee);
    }
    let reads_in_window = read.reads.iter().filter(|r| r.due >= sched.window).count();

    let mut layers = None;
    if traced {
        layers = Some(layer_metrics(&LayerInput {
            w,
            sched,
            push_end,
            published: &published,
            finished: &finished,
            before: &before,
            after: &after,
            joins: &joins,
            p2a: &p2a,
            reads: &read.reads,
            answered: &answered,
            heads: &s.heads,
            answer_us,
            soak_tail_us: soak.tail,
            relay_stats,
            edge_stats,
            nrd_len: epoch.nrd_len(),
            tick_bound,
        }));
        let mut spans: Vec<Span> = Vec::new();
        spans.extend_from_slice(&finished.edge.spans);
        spans.extend_from_slice(&finished.leaf.spans);
        spans.extend_from_slice(&read.spans);
        for (id, p) in published.pushes.iter().enumerate() {
            let span = |name, parent, start, end| Span {
                name,
                id: (p.tld as u16, p.serial),
                parent,
                start,
                end,
            };
            spans.push(span("gen.wait", Some("push"), p.due, p.start));
            spans.push(span("broker.publish", Some("push"), p.start, p.end));
            if let Some(&a) = answered.get(&id) {
                spans.push(span("push", None, p.due, a));
            }
        }
        spans.sort_by_key(|s| s.start);
        let path = format!("perfbench/out/spans-{}-seed{}.jsonl", w.name, args.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|_| trace::write(&path, sched.start, &spans));
        notes.push(match written {
            Ok(()) => format!("{} spans written to {path}", spans.len()),
            Err(e) => format!("spans not written: {e}"),
        });
    }
    let failed = failures.len() + read.read_failures + read.probe_failures;
    notes.extend(failures);
    Ok(Measured {
        setup_s: s.setup_s,
        p2a,
        p2n,
        delivered_per_s,
        joins: joins.iter().map(|j| j.secs).collect(),
        rss_mb,
        knees,
        mids,
        attempted: window_pushes + reads_in_window + joins.len() + checks,
        failed,
        notes,
        layers,
    })
}

/// One ladder rung as the knee sees it.
struct Rung {
    /// Offered names/s.
    offered: f64,
    /// Names/s answered within the limit, over the measured span.
    goodput: f64,
    /// Share of the rung's due batches answered within the limit.
    in_time: f64,
    /// Tail within the limit and no growing backlog.
    ok: bool,
}

/// The knee: the highest rate the edge serves within
/// [`LOOKUP_LIMIT_US`] without a growing backlog. Below the first rung
/// that breaks the limit, the knee is the last good rung's goodput. The
/// breaking rung moves it toward its own offered rate by the share of
/// its batches still answered in time.
fn knee_names_per_s(rungs: &[Rung]) -> f64 {
    match rungs.iter().position(|r| !r.ok) {
        None => rungs.last().map_or(0.0, |r| r.goodput),
        Some(0) => rungs[0].goodput,
        Some(f) => {
            let (lo, hi) = (rungs[f - 1].goodput, rungs[f].offered);
            lo + (hi - lo).max(0.0) * rungs[f].in_time
        }
    }
}

/// `EdgeIndex::load().answer` over the read pool, in process: the
/// resolve share of a lookup.
fn answer_us_per_batch(topo: &Topology, pool: &[ReadBatch]) -> f64 {
    let rounds = 8;
    let start = Instant::now();
    for _ in 0..rounds {
        for b in pool {
            std::hint::black_box(topo.index.load().answer(std::hint::black_box(&b.queries)));
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (rounds * pool.len()) as f64
}

struct LayerInput<'a> {
    w: &'a Workload,
    sched: Schedule,
    push_end: Instant,
    published: &'a PublisherOut,
    finished: &'a topo::Finished,
    before: &'a Sample,
    after: &'a Sample,
    joins: &'a [topo::Join],
    p2a: &'a [f64],
    reads: &'a [ReadRec],
    answered: &'a HashMap<usize, Instant>,
    heads: &'a [ZoneSnapshot],
    answer_us: f64,
    /// The soak's batch tail from the due time.
    soak_tail_us: f64,
    relay_stats: darkdns_broker::transport::RelayStats,
    edge_stats: darkdns_edge::EdgeServerStats,
    nrd_len: usize,
    tick_bound: usize,
}

/// The traced run's per-layer split.
fn layer_metrics(x: &LayerInput) -> Vec<Metric> {
    let (b, a, sched) = (x.before, x.after, x.sched);
    let shards = x.w.shards;
    let wall = (a.at - b.at).as_secs_f64();
    let write: Vec<(usize, &PushRec)> = x
        .published
        .pushes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.due >= sched.window && p.due < x.push_end)
        .collect();
    let at_relay = reached(&x.finished.relay_advances, shards);
    let at_edge = reached(&x.finished.edge.advances, shards);
    let at_inproc = reached(
        x.finished.inproc.as_ref().map_or(&[][..], |o| &o.advances),
        shards,
    );
    let mut publish_us = Vec::new();
    let mut root_to_relay = Vec::new();
    let mut inproc_nrd = Vec::new();
    let mut stages: [Vec<f64>; 5] = Default::default();
    for (id, p) in &write {
        publish_us.push((p.end - p.start).as_secs_f64() * 1e6);
        let relay = at_relay(p.tld, p.serial);
        if let Some(r) = relay {
            root_to_relay.push(ms(r.saturating_duration_since(p.end)));
        }
        if let Some(n) = at_inproc(p.tld, p.serial) {
            inproc_nrd.push(ms(n - p.due));
        }
        if let (Some(r), Some(e), Some(&ans)) =
            (relay, at_edge(p.tld, p.serial), x.answered.get(id))
        {
            stages[0].push(ms(p.start - p.due));
            stages[1].push(ms(p.end - p.start));
            stages[2].push(ms(r.saturating_duration_since(p.end)));
            stages[3].push(ms(e.saturating_duration_since(r.max(p.end))));
            stages[4].push(ms(ans.saturating_duration_since(e.max(r).max(p.end))));
        }
    }
    let stage_p50: Vec<f64> = stages.iter().map(|s| median(s)).collect();
    let stage_sum: f64 = stage_p50.iter().sum();
    let p2a_p50 = median(x.p2a);

    // The workload's own deltas, replayed through each layer's codec
    // and apply in process.
    let mut heads: Vec<ZoneSnapshot> = x.heads.to_vec();
    let (mut apply_ns, mut enc_ns, mut dec_ns) = (0u128, 0u128, 0u128);
    for (tld, delta, from, to, at) in &x.published.deltas {
        let t0 = Instant::now();
        let next = delta.apply(&heads[*tld], *to, *at);
        let t1 = Instant::now();
        let frame = encode_delta_push(heads[*tld].origin(), *from, *to, *at, delta);
        let t2 = Instant::now();
        let push = decode_delta_push(&frame).expect("own frames decode");
        let t3 = Instant::now();
        std::hint::black_box(push);
        heads[*tld] = next;
        apply_ns += (t1 - t0).as_nanos();
        enc_ns += (t2 - t1).as_nanos();
        dec_ns += (t3 - t2).as_nanos();
    }
    let replays = x.published.deltas.len().max(1) as f64;

    let sum = |f: fn(&ShardStats) -> u64, s: &[ShardStats]| s.iter().map(f).sum::<u64>();
    let d = |f: fn(&ShardStats) -> u64| (sum(f, &a.shards) - sum(f, &b.shards)) as f64;
    let pushes = d(|s| s.pushes).max(1.0);
    let frames = (a.root.coalesced_frames - b.root.coalesced_frames)
        + (a.relay_server.coalesced_frames - b.relay_server.coalesced_frames);
    let writes = (a.root.coalesced_writes - b.root.coalesced_writes)
        + (a.relay_server.coalesced_writes - b.relay_server.coalesced_writes);
    let busy = |before: (u64, u64), after: (u64, u64)| {
        let cpu = (after.0 - before.0) as f64;
        let events = (after.1 - before.1).max(1) as f64;
        (cpu / 1e3 / events, cpu / 1e9 / wall)
    };
    let (view_us, view_share) = busy(b.leaf_busy, a.leaf_busy);
    let (feed_us, feed_share) = busy(b.edge_busy, a.edge_busy);
    let edge_pushes = x
        .finished
        .edge
        .advances
        .iter()
        .filter(|v| v.at >= b.at && v.at < a.at)
        .count()
        .max(1) as f64;
    let chunks: Vec<f64> = x.joins.iter().map(|j| j.chunks as f64).collect();
    let join_bytes: u64 = x.joins.iter().map(|j| j.bytes).sum();
    let join_secs: f64 = x.joins.iter().map(|j| j.secs).sum();
    let soak_rtt: Vec<f64> = x
        .reads
        .iter()
        .filter(|r| r.segment == SOAK)
        .map(|r| (r.done - r.sent).as_secs_f64() * 1e6)
        .collect();
    let mut late: Vec<f64> = x
        .published
        .pushes
        .iter()
        .filter(|p| p.due >= sched.window)
        .map(|p| ms(p.start - p.due))
        .collect();
    late.extend(
        x.reads
            .iter()
            .filter(|r| r.segment == 0 && r.due >= sched.window)
            .map(|r| ms(r.sent - r.due)),
    );
    let cpu_s = (a.cpu_ns - b.cpu_ns) as f64 / 1e9;
    let spans = (x.finished.edge.spans.len() + x.finished.leaf.spans.len()) as f64;
    let overhead_s = spans * span_cost_s() + (a.observers_cpu_ns - b.observers_cpu_ns) as f64 / 1e9;

    let publish = summarize(&publish_us);
    let hop = summarize(&root_to_relay);
    let mut m = vec![
        metric("broker.publish_p50_us", publish.p50, "us"),
        metric("broker.publish_tail_us", publish.tail, "us"),
        metric(
            "broker.frame_bytes_per_push",
            d(|s| s.frame_bytes) / pushes,
            "bytes",
        ),
        metric("broker.lagged_messages", d(|s| s.lagged_messages), "count"),
        metric("broker.evictions", d(|s| s.evictions), "count"),
        metric(
            "broker.lock_contentions",
            d(|s| s.lock_contentions),
            "count",
        ),
        metric(
            "dns.zone.apply_us_per_push",
            apply_ns as f64 / 1e3 / replays,
            "us",
        ),
        metric(
            "dns.wire.encode_us_per_push",
            enc_ns as f64 / 1e3 / replays,
            "us",
        ),
        metric(
            "dns.wire.decode_us_per_push",
            dec_ns as f64 / 1e3 / replays,
            "us",
        ),
        metric("transport.root_to_relay_p50_ms", hop.p50, "ms"),
        metric("transport.root_to_relay_tail_ms", hop.tail, "ms"),
        metric(
            "transport.frames_per_write",
            frames as f64 / writes.max(1) as f64,
            "frames",
        ),
        metric("transport.tick_bound_pushes", x.tick_bound as f64, "count"),
        metric("transport.bootstrap_chunks", median(&chunks), "count"),
        metric(
            "transport.bootstrap_mb_per_s",
            join_bytes as f64 / 1e6 / join_secs.max(1e-9),
            "MB/s",
        ),
        metric(
            "relay.frames_relayed",
            (a.relay.frames_relayed - b.relay.frames_relayed) as f64,
            "count",
        ),
        metric(
            "relay.frames_skipped",
            x.relay_stats.frames_skipped as f64,
            "count",
        ),
        metric("relay.resyncs", x.relay_stats.resyncs as f64, "count"),
        metric("core.view.pump_us_per_event", view_us, "us"),
        metric("core.view.pump_busy_share", view_share, "share"),
        metric("core.view.resyncs", x.finished.leaf.resyncs as f64, "count"),
        metric("edge.feed.pump_us_per_event", feed_us, "us"),
        metric("edge.feed.pump_busy_share", feed_share, "share"),
        metric(
            "edge.index.epochs_per_push",
            (a.epoch - b.epoch) as f64 / edge_pushes,
            "epochs",
        ),
        metric("edge.index.nrd_len", x.nrd_len as f64, "records"),
        metric("edge.index.answer_us_per_batch", x.answer_us, "us"),
        metric(
            "edge.server.rtt_minus_resolve_us",
            median(&soak_rtt) - x.answer_us,
            "us",
        ),
        metric("edge.server.lookup_tail_us", x.soak_tail_us, "us"),
        metric(
            "edge.server.bad_frames",
            x.edge_stats.bad_frames as f64,
            "count",
        ),
        metric("inproc.publish_to_nrd_p50_ms", median(&inproc_nrd), "ms"),
        metric("proc.cpu_busy_cores", cpu_s / wall, "cores"),
        metric("gen.late_tail_ms", summarize(&late).tail, "ms"),
        metric(
            "trace.overhead_pct",
            100.0 * overhead_s / cpu_s.max(1e-9),
            "%",
        ),
        metric("stage.gen_late_p50_ms", stage_p50[0], "ms"),
        metric("stage.publish_p50_ms", stage_p50[1], "ms"),
        metric("stage.root_to_relay_p50_ms", stage_p50[2], "ms"),
        metric("stage.relay_to_edge_p50_ms", stage_p50[3], "ms"),
        metric("stage.edge_to_answer_p50_ms", stage_p50[4], "ms"),
        metric("trace.stage_sum_p50_ms", stage_sum, "ms"),
        metric("trace.publish_to_answer_p50_ms", p2a_p50, "ms"),
        metric(
            "trace.stage_sum_share",
            stage_sum / p2a_p50.max(1e-9),
            "share",
        ),
    ];
    let n = format!("n={}", write.len());
    for x in m
        .iter_mut()
        .filter(|m| m.name.ends_with("_ms") || m.name.starts_with("broker.publish"))
    {
        x.note = n.clone();
    }
    m
}

/// What recording one traced event costs: two thread-CPU clock reads,
/// a monotonic clock read and a span push.
fn span_cost_s() -> f64 {
    let rounds = 20_000;
    let mut spans = Vec::with_capacity(rounds);
    let start = Instant::now();
    for i in 0..rounds {
        let c0 = stats::thread_cpu_ns();
        let at = Instant::now();
        let c1 = stats::thread_cpu_ns();
        spans.push(Span {
            name: "calibrate",
            id: (0, i as u32),
            parent: None,
            start: at,
            end: at,
        });
        std::hint::black_box(c1 - c0);
    }
    std::hint::black_box(&spans);
    start.elapsed().as_secs_f64() / rounds as f64
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <rzu-small|rzu-bigzone|edge-lookup> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let machine = stats::machine(args.seed);
    println!("# machine {machine}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let cpu_before = stats::host_cpu_ticks();
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    if let (Some(before), Some(after)) = (cpu_before, stats::host_cpu_ticks()) {
        // Time the hypervisor ran something else on this machine's
        // CPUs: a busy host slows every wake-up the figures contain.
        let steal = (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64;
        println!(
            "# host steal over the run: {:.2}% of CPU time",
            100.0 * steal
        );
    }
    let mut fields = Vec::new();
    for m in &report.metrics {
        println!("{:<40} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    let path = format!(
        "perfbench/out/{}-seed{}-trace{}.json",
        args.workload.name, args.seed, args.trace as u8
    );
    let record = format!("{{\"machine\": {machine}, \"result\": {result}}}\n");
    if let Err(e) =
        std::fs::create_dir_all("perfbench/out").and_then(|_| std::fs::write(&path, record))
    {
        println!("# result not written to {path}: {e}");
    }
    println!("{result}");
}
