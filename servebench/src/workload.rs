//! The three workloads: their tenants, the inputs generated from the
//! seed, and each client's deterministic operation sequence.
//!
//! The server receives only what is generated here. Ingest batches are
//! drawn once per run into a pool that the clients cycle through, so
//! generation stays outside every timed section and a run's memory
//! does not grow with its length.

use hh_server::{SummaryKind, TenantSpec};
use hh_streams::{collect_stream, CidrZipf, ItemSource, ZipfGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the verification stream. Fixed, not taken from `--seed`, so
/// the accuracy figures repeat exactly from run to run.
pub const VERIFY_SEED: u64 = 0x5EED_0D1F;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    IngestDurable,
    QueryHot,
    RangeTelemetry,
}

impl Name {
    pub const ALL: [Name; 3] = [Name::IngestDurable, Name::QueryHot, Name::RangeTelemetry];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::IngestDurable => "ingest_durable",
            Name::QueryHot => "query_hot",
            Name::RangeTelemetry => "range_telemetry",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Self::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// Whether the workload's main operation, the one `op_p50_us`
    /// times, is a read rather than an acked ingest.
    pub fn reads(self) -> bool {
        self == Name::QueryHot
    }
}

/// One operation a client issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest pool batch `batch` into tenant `tenant`.
    Ingest { tenant: usize, batch: usize },
    /// Read tenant `tenant`'s heavy-hitter report.
    Query { tenant: usize },
    /// `RangeQuery` over `ranges[range]`, then `HeavyRanges(phi)`, timed
    /// as one operation.
    Poll { tenant: usize, range: usize },
    /// A server-wide checkpoint round.
    Checkpoint,
}

/// A workload's tenants, inputs and traffic mix.
pub struct Workload {
    /// Closed-loop client connections.
    pub clients: usize,
    /// Tenant names and specs, in the order operations index them.
    pub tenants: Vec<(String, TenantSpec)>,
    /// Ingest batches the clients cycle through.
    pub pool: Vec<Vec<u64>>,
    /// Items of each pool batch inside each of `ranges` (range
    /// workloads only), for checking range answers against exact counts.
    pub pool_range_counts: Vec<Vec<u64>>,
    /// Id ranges a poll asks about: the planted blocks first.
    pub ranges: Vec<(u64, u64)>,
    /// Planted blocks among `ranges` (a prefix of it).
    pub planted: usize,
    /// Share of the clients' operations that are `Query` reads.
    read_share: f64,
    /// Ingest-then-`Query` rounds on tenant 0 right after the measured
    /// phase, for a workload whose clients only write; the `Query`s are
    /// its reads.
    pub read_back: usize,
    /// Client 0 checkpoints every this many of its own operations.
    checkpoint_every: u64,
    source: Source,
}

/// How items are drawn, for the pool and for the verification stream.
#[derive(Clone)]
enum Source {
    Zipf,
    Cidr(Vec<(u64, u32, f64)>),
}

const UNIVERSE: u64 = 1 << 32;

/// Every this many ingests a poll follows (range workloads).
const POLL_EVERY: u64 = 4;

/// Pool batches ingested into each tenant during set-up.
pub const PRELOAD_BATCHES: usize = 32;

/// The spec of `range_telemetry`'s Dyadic tenant.
pub fn range_spec() -> TenantSpec {
    spec(SummaryKind::Dyadic, 0.05, 0.1, 1 << 20)
}

fn spec(kind: SummaryKind, eps: f64, phi: f64, m: u64) -> TenantSpec {
    TenantSpec {
        kind,
        eps,
        phi,
        delta: 0.1,
        universe: UNIVERSE,
        m,
        structure_seed: 42,
        shards: 1,
    }
}

impl Workload {
    pub fn new(name: Name, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tenants, source, batch, batches) = match name {
            Name::IngestDurable => (
                vec![(
                    "durable".to_string(),
                    spec(SummaryKind::Algo2, 0.01, 0.05, 1 << 24),
                )],
                Source::Zipf,
                4096,
                256,
            ),
            Name::QueryHot => (
                [
                    SummaryKind::Algo1,
                    SummaryKind::MisraGries,
                    SummaryKind::MisraGriesBaseline,
                    SummaryKind::SpaceSaving,
                    SummaryKind::LossyCounting,
                    SummaryKind::CountMin,
                ]
                .into_iter()
                .map(|k| {
                    (
                        format!("hot-{}", k.name().replace('.', "-")),
                        spec(k, 0.01, 0.05, 1 << 20),
                    )
                })
                .collect(),
                Source::Zipf,
                512,
                512,
            ),
            Name::RangeTelemetry => (
                vec![("prefixes".to_string(), range_spec())],
                // 10.0.0.0/8, 192.168.0.0/16 and 192.0.2.0/24.
                Source::Cidr(vec![
                    (10, 8, 0.30),
                    (0xC0A8, 16, 0.20),
                    (0xC0_0002, 24, 0.12),
                ]),
                1024,
                2048,
            ),
        };
        let pool = source.batches(&mut rng, batch, batches);
        let (ranges, planted) = match &source {
            Source::Zipf => (Vec::new(), 0),
            Source::Cidr(blocks) => {
                let mut r: Vec<(u64, u64)> = blocks
                    .iter()
                    .map(|&(v, len, _)| {
                        let lo = v << (32 - len);
                        (lo, lo + ((1u64 << (32 - len)) - 1))
                    })
                    .collect();
                let planted = r.len();
                // 172.16.0.0/12: nothing planted there.
                r.push((0xAC10_0000, 0xAC1F_FFFF));
                (r, planted)
            }
        };
        let pool_range_counts = pool.iter().map(|b| range_counts(&ranges, b)).collect();
        Self {
            // Two connections for the two vCPUs of the host the figures
            // in README.md come from. A range ingest holds the registry
            // lock for its whole ~10 ms kernel pass, so a second range
            // client only queues behind the first, and whether its polls
            // wait out the other's ingest flips with the clients' phase.
            clients: if name == Name::RangeTelemetry { 1 } else { 2 },
            tenants,
            pool,
            pool_range_counts,
            ranges,
            planted,
            read_share: match name {
                Name::IngestDurable => 0.0,
                Name::QueryHot => 0.95,
                Name::RangeTelemetry => 0.0,
            },
            // The durable writers are read back once they stop: a
            // `Query` of the Algo2 tenant between their ingests would
            // re-merge its 17 MB bank under the registry lock while the
            // other writer waits (see README.md).
            read_back: if name == Name::IngestDurable { 100 } else { 0 },
            checkpoint_every: match name {
                Name::IngestDurable => 256,
                Name::QueryHot => 8192,
                Name::RangeTelemetry => 256,
            },
            source,
        }
    }

    /// Operation sequence of client `client`, deterministic in `seed`.
    pub fn ops(&self, client: usize, seed: u64) -> OpStream<'_> {
        OpStream {
            w: self,
            rng: StdRng::seed_from_u64(seed ^ (0xC11E_0000 + client as u64)),
            client,
            issued: 0,
            ingests: 0,
            pending_poll: None,
            cursor: client * self.pool.len() / self.clients,
        }
    }

    /// The fixed verification stream for tenant `t` (its spec's `m`
    /// items), independent of the run's seed.
    pub fn verify_stream(&self, t: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(VERIFY_SEED);
        let m = self.tenants[t].1.m as usize;
        self.source
            .batches(&mut rng, m, 1)
            .pop()
            .expect("one batch")
    }

    /// The read-back that follows the measured phase: `read_back`
    /// rounds of an ingest of the next pool batch into tenant 0 and a
    /// `Query` of it, so every read refreshes the serving view.
    pub fn read_back_ops(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.pool.len())
            .cycle()
            .take(self.read_back)
            .flat_map(|batch| [Op::Ingest { tenant: 0, batch }, Op::Query { tenant: 0 }])
    }

    pub fn heavy_phi(&self) -> f64 {
        self.tenants[0].1.phi
    }
}

impl Source {
    fn batches(&self, rng: &mut StdRng, batch: usize, batches: usize) -> Vec<Vec<u64>> {
        match self {
            Source::Zipf => {
                let mut g = ZipfGenerator::new(UNIVERSE, 1.1).scrambled(rng);
                draw(&mut g, rng, batch, batches)
            }
            Source::Cidr(blocks) => {
                let mut g = CidrZipf::new(blocks.clone(), 1.1);
                draw(&mut g, rng, batch, batches)
            }
        }
    }
}

fn draw<S: ItemSource>(g: &mut S, rng: &mut StdRng, batch: usize, batches: usize) -> Vec<Vec<u64>> {
    (0..batches)
        .map(|_| collect_stream(g, batch, rng))
        .collect()
}

/// How many of `items` fall in each inclusive range.
pub fn range_counts(ranges: &[(u64, u64)], items: &[u64]) -> Vec<u64> {
    ranges
        .iter()
        .map(|&(lo, hi)| items.iter().filter(|&&x| lo <= x && x <= hi).count() as u64)
        .collect()
}

/// An endless, seeded operation sequence for one client.
pub struct OpStream<'a> {
    w: &'a Workload,
    rng: StdRng,
    client: usize,
    issued: u64,
    ingests: u64,
    pending_poll: Option<usize>,
    cursor: usize,
}

impl OpStream<'_> {
    fn next_batch(&mut self) -> usize {
        let b = self.cursor;
        self.cursor = (self.cursor + 1) % self.w.pool.len();
        b
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let w = self.w;
        self.issued += 1;
        // Checkpoints land at fixed operation counts of client 0, so
        // their work falls at the same points in every run.
        if self.client == 0 && self.issued.is_multiple_of(w.checkpoint_every) {
            return Some(Op::Checkpoint);
        }
        if let Some(tenant) = self.pending_poll.take() {
            let range = self.rng.gen_range(0..w.ranges.len());
            return Some(Op::Poll { tenant, range });
        }
        let tenant = self.rng.gen_range(0..w.tenants.len());
        if self.rng.gen::<f64>() < w.read_share {
            return Some(Op::Query { tenant });
        }
        self.ingests += 1;
        if !w.ranges.is_empty() && self.ingests.is_multiple_of(POLL_EVERY) {
            self.pending_poll = Some(tenant);
        }
        Some(Op::Ingest {
            tenant,
            batch: self.next_batch(),
        })
    }
}
