//! Seeded input generation: the workload table, the RZU push stream,
//! the lookup batch pool, and the reference model every answer is
//! checked against. Everything here is a pure function of the seed; the
//! program under test only ever sees the generated deltas and queries.
//!
//! The pushes are not invented here. They come from the registry
//! crate's paper-calibrated workload model (`build_fleet_universe`,
//! `WorkloadConfig::default()`), materialised per TLD as the RZU
//! service's zone-delta stream (`RzuZoneStream::from_universe`) and
//! replayed at the benchmark's fixed push rate.

use darkdns_dns::diff::{JournalEvent, ZoneJournal};
use darkdns_dns::wire::{LookupAnswer, LookupQuery, LOOKUP_ANY_TLD};
use darkdns_dns::{DomainName, NsSet, Serial, ZoneDelta, ZoneSnapshot};
use darkdns_edge::EdgeIndexConfig;
use darkdns_registry::rzu::RzuZoneStream;
use darkdns_registry::tld::{paper_gtlds, TldId};
use darkdns_registry::workload::{build_fleet_universe, WorkloadConfig};
use darkdns_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One workload: the topology's zone sizes, the push stream and the
/// read ladder. See `NOTES.md` for why each exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Shard `i` is the paper's `i`-th gTLD (`paper_gtlds()`), with that
    /// TLD's registration volume.
    pub shards: usize,
    /// Long-standing delegations per shard before the stream starts,
    /// evenly spaced over this range, largest first.
    pub shard_size: (usize, usize),
    /// Fleet-wide offered push rate (pushes/s, open loop).
    pub push_rate: f64,
    /// Whether the read phase carries pushes: at `push_rate` through the
    /// soak, then one in the middle of every ladder slot, so every rung
    /// reads beside the same number of epoch swaps. Without, the broker
    /// is quiet and the soak and the ladder measure the read path alone.
    pub read_pushes: bool,
    /// Climbs of the read ladder per instance; the knee is the mean
    /// over all climbs of a run.
    pub ladder_passes: usize,
    /// Share of the timed window given to the write phase.
    pub write_share: f64,
    /// Share of the timed window given to the soak at [`SOAK_RATE`] that
    /// follows the write phase; the ladder climbs take the rest.
    pub soak_share: f64,
    /// Independent instances per run: each is a full set-up (the median
    /// is `setup_s`) measured for its share of the window.
    pub instances: usize,
    /// Registrations per warm-up push: the warm-up folds consecutive
    /// stream pushes of a shard into one until it carries this many.
    pub warm_adds: usize,
    /// Fresh leaves that join through the relay at the end of an
    /// instance; `bootstrap_s` is their median. Joins on small zones are
    /// cheap and vary more, so they get more.
    pub joins: usize,
}

/// Read rate (64-name batches/s) beside the write phase.
pub const WRITE_PHASE_READS: f64 = 250.0;
/// The soak's read rate, where `lookup_*` are read: 500 batches/s =
/// 32k names/s, a tenth of the edge's single-connection capacity on a
/// 2-vCPU machine, so a host stall of a few ms delays a few batches
/// instead of building a queue that decides the p90.
pub const SOAK_RATE: f64 = 500.0;
/// Offered read rates (64-name batches/s) of the ladder climbs that
/// find the knee, lowest first, shared by every workload so lookup
/// figures compare across them. They span below and above the knee
/// (5000 to 8000 batches/s on a 2-vCPU machine).
pub const LADDER: &[f64] = &[
    1500.0, 2500.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 9000.0,
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rzu-small",
        shards: 10,
        shard_size: (10_000, 50_000),
        push_rate: 50.0,
        read_pushes: false,
        ladder_passes: 2,
        write_share: 0.6,
        soak_share: 0.2,
        instances: 3,
        warm_adds: 2_048,
        joins: 2,
    },
    Workload {
        name: "rzu-bigzone",
        shards: 1,
        shard_size: (1_000_000, 1_000_000),
        push_rate: 2.0,
        read_pushes: false,
        ladder_passes: 3,
        write_share: 0.7,
        soak_share: 0.12,
        instances: 1,
        warm_adds: 8_192,
        joins: 3,
    },
    Workload {
        name: "edge-lookup",
        shards: 4,
        shard_size: (20_000, 20_000),
        push_rate: 15.0,
        read_pushes: true,
        ladder_passes: 2,
        write_share: 0.4,
        soak_share: 0.3,
        instances: 3,
        warm_adds: 2_048,
        joins: 4,
    },
];

/// The RZU push cadence: Verisign's historical service pushed the
/// accumulated zone changes every five minutes (the paper's Appendix B).
const CADENCE: SimDuration = SimDuration::from_secs(300);
/// Days of registry activity the universe covers. The warm-up uses the
/// first 12–20 simulated hours, the timed pushes the hours after.
const STREAM_DAYS: u64 = 2;
/// Names in the read-only hot set of each shard: long-standing
/// delegations the stream never touches.
const HOT: usize = 4_096;
const PROVIDERS: usize = 16;
pub const BATCH: usize = 64;

fn name(s: &str) -> DomainName {
    DomainName::parse(s).expect("generated names are valid")
}

/// The shards' TLD names: the paper's gTLDs in its table order.
fn tld_names(shards: usize) -> Vec<String> {
    let tlds = paper_gtlds();
    assert!(shards <= tlds.len(), "at most {} shards", tlds.len());
    tlds.into_iter().take(shards).map(|t| t.name).collect()
}

/// A long-standing delegation of the initial zone. Stream names always
/// carry an `x` before their base-36 sequence tag, so these never
/// collide with them.
fn base_name(origin: &str, i: usize) -> DomainName {
    name(&format!("b{i:07}.{origin}"))
}

/// The serial window in which a name is delegated: present at serial
/// `s` iff `from <= s < until`.
#[derive(Debug, Clone, Copy)]
pub struct Life {
    pub from: u32,
    pub until: u32,
}

impl Life {
    fn present_at(self, serial: u32) -> bool {
        self.from <= serial && serial < self.until
    }
}

/// What a probe row must answer once the edge serves `serial` or later.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub life: Life,
    /// For names this push registered: the push's `pushed_at`.
    pub first_seen: Option<SimTime>,
}

/// One push as the broker receives it.
#[derive(Clone)]
pub struct Push {
    pub tld: usize,
    pub from: Serial,
    pub to: Serial,
    pub pushed_at: SimTime,
    pub delta: ZoneDelta,
    /// A few of the push's names, with what a lookup must answer.
    pub probe: Vec<(LookupQuery, Expect)>,
}

/// The whole push sequence of a run, shared by every instance.
struct Sequence {
    /// Folded warm-up pushes, in stream order.
    warm: Vec<Push>,
    /// Timed pushes, in stream order.
    steady: Vec<Push>,
    /// Initial delegations per shard.
    base: Vec<usize>,
}

/// The push generator for a whole fleet of shards: it hands out the
/// precomputed sequence and keeps the model of what each shard holds.
#[derive(Clone)]
pub struct Generator {
    seq: Arc<Sequence>,
    /// Steady pushes handed out so far.
    next: usize,
    warmed: bool,
    /// Per shard: serial of the last push handed out.
    serials: Vec<u32>,
    /// Per shard: delegations after the pushes handed out.
    live: Vec<usize>,
}

/// Build the push sequence for `w` from the seed, with at least `need`
/// timed pushes after the warm-up.
pub fn fleet(w: &Workload, seed: u64, need: usize) -> Result<Generator, String> {
    let origins = tld_names(w.shards);
    let base = shard_sizes(w);
    let config = WorkloadConfig {
        // Paper magnitude; the pre-window population is the benchmark's
        // own long-standing delegations above.
        scale: 1.0,
        window_days: STREAM_DAYS,
        base_population_frac: 0.0,
        ..WorkloadConfig::default()
    };
    let tlds: Vec<_> = paper_gtlds().into_iter().take(w.shards).collect();
    let anchor = config.window_start;
    let universe = build_fleet_universe(&tlds, config, seed);
    // Every shard's stream, merged in stream-time order: each five-minute
    // grid point pushes once on every shard with changes.
    let mut merged: Vec<(SimTime, usize, ZoneDelta)> = Vec::new();
    for (t, origin) in origins.iter().enumerate() {
        let stream =
            RzuZoneStream::from_universe(&universe, name(origin), TldId(t as u16), anchor, CADENCE);
        merged.extend(
            stream
                .pushes
                .into_iter()
                .filter(|p| !p.delta.is_empty())
                .map(|p| (p.pushed_at, t, p.delta)),
        );
    }
    drop(universe);
    merged.sort_by_key(|(at, t, _)| (*at, *t));

    // The warm-up takes the stream's first pushes until they carry the
    // edge NRD window's cap in registrations, with a margin for names
    // registered and removed inside one folded push.
    let cap = EdgeIndexConfig::default().nrd_capacity;
    let mut adds = 0;
    let split = merged
        .iter()
        .position(|(_, _, d)| {
            adds += d.added.len();
            adds >= cap + cap / 8
        })
        .map_or(merged.len(), |i| i + 1);
    let steady_left = merged.len() - split;
    if steady_left < need {
        return Err(format!(
            "the stream has {steady_left} pushes after the warm-up, the run needs {need}"
        ));
    }
    merged.truncate(split + need);
    let rest = merged.split_off(split);

    let mut serials = vec![0u32; w.shards];
    let mut next_serial = |t: usize| {
        serials[t] += 1;
        serials[t]
    };
    let mut warm = Vec::new();
    let mut open: Vec<Vec<(SimTime, ZoneDelta)>> = vec![Vec::new(); w.shards];
    for (at, t, delta) in merged {
        open[t].push((at, delta));
        if open[t].iter().map(|(_, d)| d.added.len()).sum::<usize>() >= w.warm_adds {
            let (at, delta) = fold(std::mem::take(&mut open[t]));
            warm.push(bare(t, next_serial(t), at, delta));
        }
    }
    for (t, pending) in open.into_iter().enumerate() {
        if !pending.is_empty() {
            let (at, delta) = fold(pending);
            warm.push(bare(t, next_serial(t), at, delta));
        }
    }
    let mut steady: Vec<Push> = rest
        .into_iter()
        .map(|(at, t, delta)| bare(t, next_serial(t), at, delta))
        .collect();

    // The model: every stream name's delegated serial window.
    let mut life: HashMap<DomainName, Life> = HashMap::new();
    for p in warm.iter().chain(&steady) {
        let to = p.to.get();
        for (n, _) in &p.delta.added {
            life.insert(
                *n,
                Life {
                    from: to,
                    until: u32::MAX,
                },
            );
        }
        for (n, _) in &p.delta.removed {
            life.get_mut(n)
                .expect("a removed name was added first")
                .until = to;
        }
    }
    for p in &mut steady {
        let tld = p.tld as u16;
        let row = |n: &DomainName, first_seen| {
            (
                LookupQuery { tld, name: *n },
                Expect {
                    life: life[n],
                    first_seen,
                },
            )
        };
        let added = p
            .delta
            .added
            .iter()
            .take(4)
            .map(|(n, _)| row(n, Some(p.pushed_at)));
        let removed = p.delta.removed.iter().take(2).map(|(n, _)| row(n, None));
        let changed = p.delta.changed.iter().take(2).map(|c| row(&c.domain, None));
        p.probe = added.chain(removed).chain(changed).collect();
    }
    let live = base.clone();
    Ok(Generator {
        seq: Arc::new(Sequence { warm, steady, base }),
        next: 0,
        warmed: false,
        serials: vec![0; w.shards],
        live,
    })
}

/// Per-shard initial delegation counts, evenly spaced over the
/// workload's range, largest first: `com`, the busiest TLD, gets the
/// largest zone.
fn shard_sizes(w: &Workload) -> Vec<usize> {
    let (lo, hi) = w.shard_size;
    (0..w.shards)
        .map(|i| hi - (hi - lo) * i / (w.shards - 1).max(1))
        .collect()
}

/// A push without probe rows.
fn bare(tld: usize, to: u32, pushed_at: SimTime, delta: ZoneDelta) -> Push {
    Push {
        tld,
        from: Serial::new(to - 1),
        to: Serial::new(to),
        pushed_at,
        delta,
        probe: Vec::new(),
    }
}

/// Consecutive pushes of one shard folded into the one delta that has
/// the same effect, stamped with the last push's time.
fn fold(pushes: Vec<(SimTime, ZoneDelta)>) -> (SimTime, ZoneDelta) {
    let at = pushes.last().expect("at least one push").0;
    let mut journal = ZoneJournal::new();
    let mut serial = Serial::new(0);
    let mut record = |event| {
        serial = serial.next();
        journal.record(serial, event);
    };
    for (_, d) in pushes {
        for (domain, prev_ns) in d.removed {
            record(JournalEvent::Removed { domain, prev_ns });
        }
        for c in d.changed {
            record(JournalEvent::NsChanged {
                domain: c.domain,
                prev_ns: c.old_ns,
                ns: c.new_ns,
            });
        }
        for (domain, ns) in d.added {
            record(JournalEvent::Added { domain, ns });
        }
    }
    (at, journal.delta_between(Serial::new(0), serial))
}

impl Generator {
    /// The initial snapshot of every shard: its long-standing
    /// delegations, spread over a few name-server providers.
    pub fn snapshots(&self) -> Vec<ZoneSnapshot> {
        let providers: Vec<NsSet> = (0..PROVIDERS)
            .map(|p| {
                NsSet::new(vec![
                    name(&format!("ns1.p{p}.net")),
                    name(&format!("ns2.p{p}.net")),
                ])
            })
            .collect();
        let origins = tld_names(self.shards());
        origins
            .iter()
            .zip(&self.seq.base)
            .map(|(origin, &size)| {
                let mut added: Vec<(DomainName, NsSet)> = (0..size)
                    .map(|i| (base_name(origin, i), providers[i % PROVIDERS].clone()))
                    .collect();
                added.sort_unstable_by_key(|a| a.0);
                let empty = ZoneSnapshot::from_entries(
                    name(origin),
                    Serial::new(0),
                    SimTime::ZERO,
                    Vec::new(),
                );
                let delta = ZoneDelta {
                    added,
                    ..ZoneDelta::default()
                };
                delta.apply(&empty, Serial::new(0), SimTime::ZERO)
            })
            .collect()
    }

    /// The folded warm-up pushes; handed out once.
    pub fn warm(&mut self) -> Vec<Push> {
        assert!(!self.warmed, "the warm-up is handed out once");
        self.warmed = true;
        let pushes = self.seq.warm.clone();
        for p in &pushes {
            self.hand_out(p);
        }
        pushes
    }

    /// The next timed push.
    pub fn next(&mut self) -> Push {
        let push = self.seq.steady[self.next].clone();
        self.next += 1;
        self.hand_out(&push);
        push
    }

    fn hand_out(&mut self, p: &Push) {
        self.serials[p.tld] = p.to.get();
        self.live[p.tld] = self.live[p.tld] + p.delta.added.len() - p.delta.removed.len();
    }

    /// What the timed pushes carry, for the run's notes.
    pub fn describe(&self) -> String {
        let steady = &self.seq.steady;
        let n = steady.len().max(1) as f64;
        let per = |f: fn(&ZoneDelta) -> usize| {
            steady.iter().map(|p| f(&p.delta)).sum::<usize>() as f64 / n
        };
        let warm_adds: usize = self.seq.warm.iter().map(|p| p.delta.added.len()).sum();
        format!(
            "stream: {} warm-up pushes ({warm_adds} registrations), {} timed pushes carrying {:.1} registrations, {:.1} removals and {:.1} NS changes on average",
            self.seq.warm.len(),
            steady.len(),
            per(|d| d.added.len()),
            per(|d| d.removed.len()),
            per(|d| d.changed.len()),
        )
    }

    pub fn shards(&self) -> usize {
        self.seq.base.len()
    }

    /// Current serial of every shard.
    pub fn serials(&self) -> Vec<Serial> {
        self.serials.iter().map(|&s| Serial::new(s)).collect()
    }

    /// Delegations the generator's model says shard `tld` holds now.
    pub fn expected_len(&self, tld: usize) -> usize {
        self.live[tld]
    }

    /// Every name the pushes handed out so far registered, including
    /// short-lived names that are gone from the head again.
    pub fn all_added(&self) -> Vec<DomainName> {
        let warm = if self.warmed { &self.seq.warm[..] } else { &[] };
        warm.iter()
            .chain(&self.seq.steady[..self.next])
            .flat_map(|p| p.delta.added.iter().map(|(n, _)| *n))
            .collect()
    }
}

/// Check one probe answer given by an edge serving serial `serial` of
/// the probed shard.
pub fn probe_ok(expect: &Expect, answer: &LookupAnswer, serial: u32) -> bool {
    answer.present == expect.life.present_at(serial)
        && (expect.first_seen.is_none() || answer.first_seen == expect.first_seen)
}

/// A read batch and the presence each row must report.
pub struct ReadBatch {
    pub queries: Vec<LookupQuery>,
    pub present: Vec<bool>,
}

/// The seeded read pool: 64-name batches over the shards' read-only hot
/// sets, skewed toward a few names, with about 1 in 13 rows a name that
/// was never registered and 1 in 8 an ANY-TLD query.
pub fn read_pool(shards: usize, seed: u64, batches: usize) -> Vec<ReadBatch> {
    let mut rng = Rng::new(seed ^ 0x0BA7_C4E5);
    let origins = tld_names(shards);
    (0..batches)
        .map(|b| {
            let mut queries = Vec::with_capacity(BATCH);
            let mut present = Vec::with_capacity(BATCH);
            for q in 0..BATCH {
                let tld = rng.below(shards as u64) as usize;
                let miss = rng.below(13) == 0;
                let any = rng.below(8) == 0;
                let n = if miss {
                    // No `x` tag: never a stream name either.
                    name(&format!("m{b:04}{q:02}.{}", origins[tld]))
                } else {
                    // Cubing a uniform draw skews toward low indices:
                    // a tenth of the hot set takes about half the reads.
                    let u = rng.unit();
                    base_name(&origins[tld], (u * u * u * HOT as f64) as usize)
                };
                let qtld = if any { LOOKUP_ANY_TLD } else { tld as u16 };
                queries.push(LookupQuery { tld: qtld, name: n });
                present.push(!miss);
            }
            ReadBatch { queries, present }
        })
        .collect()
}

/// Check a read batch's answers: presence as the model says, no NRD
/// first-seen (hot names came with the bootstrap), and a shard serial
/// exactly on per-TLD rows.
pub fn read_ok(batch: &ReadBatch, answers: &[LookupAnswer]) -> bool {
    answers.len() == batch.queries.len()
        && batch
            .queries
            .iter()
            .zip(&batch.present)
            .zip(answers)
            .all(|((q, &p), a)| {
                a.present == p
                    && a.first_seen.is_none()
                    && a.serial.is_some() == (q.tld != LOOKUP_ANY_TLD)
            })
}
