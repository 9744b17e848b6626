//! The in-process half of the traced run: the live run's operation
//! sequence replayed through the public functions each layer exposes,
//! with a child span around every call under the operation's root
//! span. Nothing here runs inside the daemon; the decomposition is
//! measured from outside, one module call at a time.
//!
//! The first pass replays the served path: each operation's root span
//! holds the calls a served request makes, in order (protocol, tenant,
//! durability, WAL, budget check), so the sum of their self times can
//! be set against the live round trip. Two further passes replay the
//! same operations into the lower layers alone — the shard runtime,
//! then the bare summary kernel — each on its own copy, so that no
//! pass runs with another pass's state in the cache. Every pass ends
//! with the workload's read-back, as the live run does.
//!
//! Layers that a served operation reaches only now and then (tenant
//! creation, checkpoints, the store's boot scan) are repeated after the
//! replay until each has [`MIN_SAMPLES`] timings.

use crate::trace::Recorder;
use crate::workload::{range_spec, Op, Workload, PRELOAD_BATCHES};
use hh_core::{MergeableSummary, StreamSummary};
use hh_pipeline::{Frozen, IngestMode, ShardRuntime};
use hh_server::durability::encode_frame;
use hh_server::{
    read_frame, write_frame, DynSummary, IngestFrame, Request, Response, Store, Tenant,
};
use hh_wal::{Wal, WalConfig};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client identity the replay's requests carry.
const CLIENT_ID: u64 = 7;
const CHECKPOINT_TIMEOUT: Duration = Duration::from_secs(2);

/// Fewest timings a per-layer median is reported from.
pub const MIN_SAMPLES: usize = 10;

/// One tenant as the served path holds it.
struct Lane {
    name: String,
    tenant: Tenant,
    wal: Arc<Wal>,
    wal_dir: std::path::PathBuf,
}

/// The spans of all passes plus figures measured outside them.
pub struct Replay {
    pub rec: Recorder,
    /// Operations replayed before the read-back.
    pub ops: u64,
    pub items: u64,
    pub wal_bytes: u64,
    pub heap_bytes: u64,
    pub snapshot_bytes: u64,
    pub replay_records_per_s: f64,
    pub batch_len: usize,
    /// Body length of every request frame of the served-path pass.
    pub frame_bytes: Vec<usize>,
}

/// The live clients' operations, interleaved one at a time.
fn interleaved(w: &Workload, seed: u64) -> impl Iterator<Item = Op> + '_ {
    let mut streams: Vec<_> = (0..w.clients).map(|i| w.ops(i, seed)).collect();
    let (n, mut k) = (streams.len(), 0);
    std::iter::from_fn(move || {
        let op = streams[k % n].next();
        k += 1;
        op
    })
}

/// The first `ops` operations of the live clients, then the read-back.
fn sequence(w: &Workload, seed: u64, ops: u64) -> impl Iterator<Item = Op> + '_ {
    interleaved(w, seed)
        .take(ops as usize)
        .chain(w.read_back_ops())
}

/// The tenant whose serving view an operation reads.
fn read_target(op: Op) -> Option<usize> {
    match op {
        Op::Query { tenant } | Op::Poll { tenant, .. } => Some(tenant),
        Op::Ingest { .. } | Op::Checkpoint => None,
    }
}

fn roundtrip_frame(rec: &mut Recorder, body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(body.len() + 4);
    rec.time("proto.write_frame", || write_frame(&mut wire, body))
        .expect("frame write to memory");
    rec.time("proto.read_frame", || read_frame(&mut Cursor::new(&wire)))
        .expect("frame read from memory")
        .expect("a whole frame")
}

/// The request half of a served call: encode, frame out, frame in,
/// decode. Returns the request frame's body length.
fn request(rec: &mut Recorder, make: impl FnOnce() -> Request) -> usize {
    let body = rec.time("proto.request_encode", || make().encode());
    let got = roundtrip_frame(rec, &body);
    rec.time("proto.request_decode", || Request::decode(&got))
        .expect("request decodes");
    body.len()
}

fn respond(rec: &mut Recorder, rsp: Response) {
    let body = rec.time("proto.response_encode", || rsp.encode());
    let got = roundtrip_frame(rec, &body);
    rec.time("proto.response_decode", || Response::decode(&got))
        .expect("response decodes");
}

/// Records a tenant read as `tenant.query_fresh` when it had to
/// refresh the serving view, and as `hot` otherwise. Returns whether it
/// refreshed.
fn tenant_read<T>(
    rec: &mut Recorder,
    tenant: &mut Tenant,
    hot: &'static str,
    read: impl FnOnce(&mut Tenant) -> T,
) -> (T, bool) {
    let before = tenant.epoch();
    let id = rec.enter(hot);
    let out = read(tenant);
    rec.exit(id);
    let fresh = tenant.epoch() != before;
    if fresh {
        rec.rename(id, "tenant.query_fresh");
    }
    (out, fresh)
}

/// After a read that refreshed the view, what the next read of the
/// unchanged view costs, off the served path. Every workload has such
/// reads, so `tenant.query_hot` is timed on each of them.
fn hot_read(rec: &mut Recorder, tenant: &mut Tenant) {
    let root = rec.enter("layers");
    tenant_read(rec, tenant, "tenant.query_hot", |t| {
        t.query().expect("in-process query")
    });
    rec.exit(root);
}

/// Replays up to `max_ops` operations (stopping early at `deadline`)
/// and the read-back along the served path under `dir`, then the same
/// operations through the runtime and kernel passes.
pub fn replay(w: &Workload, seed: u64, dir: &Path, max_ops: u64, deadline: Instant) -> Replay {
    let mut rec = Recorder::new();
    let mut out = served_path(&mut rec, w, seed, dir, max_ops, deadline);
    runtime_pass(&mut rec, w, seed, out.ops);
    out.snapshot_bytes = kernel_pass(&mut rec, w, seed, out.ops);
    out.rec = rec;
    out
}

fn served_path(
    rec: &mut Recorder,
    w: &Workload,
    seed: u64,
    dir: &Path,
    max_ops: u64,
    deadline: Instant,
) -> Replay {
    let store = Store::open(dir.join("store")).expect("open replay store");
    let mut lanes: Vec<Lane> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(t, (name, spec))| {
            // Tenant creation as `Create` serves it: build the bank and
            // persist it at once.
            let root = rec.enter("setup");
            let bank = rec
                .time("facade.build_bank", || spec.build_bank())
                .expect("valid spec");
            for _ in 1..MIN_SAMPLES {
                std::hint::black_box(rec.time("facade.build_bank", || spec.build_bank()))
                    .expect("valid spec");
            }
            let mut tenant = Tenant::from_bank(*spec, bank).expect("tenant from bank");
            let bundle = tenant.checkpoint(CHECKPOINT_TIMEOUT);
            rec.time("store.save_tenant", || {
                store.save_tenant(name, spec, &bundle)
            })
            .expect("save tenant");
            rec.exit(root);
            let wal_dir = dir.join(format!("wal-{t}"));
            let (wal, _) = Wal::open(WalConfig::new(&wal_dir), 1).expect("open replay wal");
            Lane {
                name: name.clone(),
                tenant,
                wal: Arc::new(wal),
                wal_dir,
            }
        })
        .collect();
    // The same preload the live tenants received, untimed.
    for lane in &mut lanes {
        for batch in &w.pool[..PRELOAD_BATCHES] {
            lane.tenant.ingest(&lane.name, 0, batch).expect("preload");
        }
        lane.tenant.query().expect("warm view");
    }

    let mut frame_bytes = Vec::new();
    let mut scratch = Vec::new();
    let (mut ops, mut items, mut req_seq) = (0u64, 0u64, 0u64);
    let live_ops = interleaved(w, seed)
        .take(max_ops as usize)
        .take_while(|_| Instant::now() < deadline);
    for op in live_ops.chain(w.read_back_ops()) {
        ops += 1;
        match op {
            Op::Ingest { tenant, batch } => {
                let batch = &w.pool[batch];
                req_seq += 1;
                items += batch.len() as u64;
                let lane = &mut lanes[tenant];
                let root = rec.enter("ingest");
                frame_bytes.push(request(rec, || Request::Ingest {
                    tenant: lane.name.clone(),
                    shard: 0,
                    client: CLIENT_ID,
                    req_seq,
                    items: batch.clone(),
                }));
                let outcome = rec
                    .time("tenant.ingest", || {
                        lane.tenant
                            .ingest_logged(&lane.name, 0, CLIENT_ID, req_seq, batch)
                    })
                    .expect("in-process ingest");
                rec.time("durability.encode_frame", || {
                    encode_frame(0, CLIENT_ID, req_seq, batch, &mut scratch)
                });
                let seq = rec
                    .time("wal.append", || lane.wal.append(&scratch))
                    .expect("wal append");
                rec.time("wal.commit", || lane.wal.commit(seq))
                    .expect("wal commit");
                let lanes_ref = &lanes;
                std::hint::black_box(rec.time("server.budget_check", || {
                    lanes_ref
                        .iter()
                        .map(|l| l.tenant.resident_bytes())
                        .sum::<u64>()
                }));
                respond(
                    rec,
                    Response::Ingested {
                        accepted: outcome.accepted,
                    },
                );
                rec.exit(root);
                // Recovery decodes every logged frame; time it here.
                let root = rec.enter("layers");
                rec.time("durability.decode_frame", || IngestFrame::decode(&scratch))
                    .expect("frame decodes");
                rec.exit(root);
            }
            Op::Query { tenant } => {
                let lane = &mut lanes[tenant];
                let root = rec.enter("query");
                frame_bytes.push(request(rec, || Request::Query {
                    tenant: lane.name.clone(),
                }));
                let ((entries, epoch), fresh) =
                    tenant_read(rec, &mut lane.tenant, "tenant.query_hot", |t| {
                        t.query().expect("in-process query")
                    });
                respond(rec, Response::Report { entries, epoch });
                rec.exit(root);
                if fresh {
                    hot_read(rec, &mut lane.tenant);
                }
            }
            Op::Poll { tenant, range } => {
                let lane = &mut lanes[tenant];
                let (lo, hi) = w.ranges[range];
                let phi = w.heavy_phi();
                let root = rec.enter("poll");
                frame_bytes.push(request(rec, || Request::RangeQuery {
                    tenant: lane.name.clone(),
                    lo,
                    hi,
                }));
                let ((estimate, epoch), fresh) =
                    tenant_read(rec, &mut lane.tenant, "tenant.range_query", |t| {
                        t.range_query(lo, hi).expect("in-process range query")
                    });
                respond(rec, Response::RangeEstimate { estimate, epoch });
                frame_bytes.push(request(rec, || Request::HeavyRanges {
                    tenant: lane.name.clone(),
                    phi,
                }));
                let (entries, epoch) = rec
                    .time("tenant.heavy_ranges", || lane.tenant.heavy_ranges(phi))
                    .expect("in-process heavy ranges");
                respond(rec, Response::Ranges { entries, epoch });
                rec.exit(root);
                if fresh {
                    hot_read(rec, &mut lane.tenant);
                }
            }
            Op::Checkpoint => {
                let root = rec.enter("checkpoint");
                checkpoint(rec, &store, &mut lanes, w);
                rec.exit(root);
            }
        }
    }
    let ops = ops - w.read_back_ops().count() as u64;

    // MIN_SAMPLES more checkpoint rounds, each after one more batch per
    // tenant, however few checkpoints the replayed operations held.
    let root = rec.enter("layers");
    for batch in w.pool.iter().cycle().take(MIN_SAMPLES) {
        for lane in &mut lanes {
            lane.tenant
                .ingest(&lane.name, 0, batch)
                .expect("drill ingest");
        }
        checkpoint(rec, &store, &mut lanes, w);
    }
    rec.exit(root);

    // Recovery-side layers: log replay and the store's boot scan.
    let root = rec.enter("recovery");
    let t0 = Instant::now();
    let mut records = 0;
    for lane in &lanes {
        records += rec
            .time("wal.replay", || hh_wal::replay_dir(&lane.wal_dir))
            .expect("replay wal dir")
            .records
            .len();
    }
    let replay_secs = t0.elapsed().as_secs_f64();
    for _ in 0..MIN_SAMPLES {
        rec.time("store.load_all", || store.load_all())
            .expect("load all");
    }
    rec.exit(root);

    Replay {
        rec: Recorder::new(),
        ops,
        items,
        wal_bytes: lanes.iter().map(|l| l.wal.stats().appended_bytes).sum(),
        heap_bytes: lanes.iter().map(|l| l.tenant.resident_bytes()).sum(),
        snapshot_bytes: 0,
        replay_records_per_s: records as f64 / replay_secs.max(1e-9),
        batch_len: w.pool[0].len(),
        frame_bytes,
    }
}

/// A server-wide checkpoint round as the served path runs it: sync the
/// log, checkpoint each tenant, persist the bundle, retire covered log
/// segments.
fn checkpoint(rec: &mut Recorder, store: &Store, lanes: &mut [Lane], w: &Workload) {
    for (lane, (_, spec)) in lanes.iter_mut().zip(&w.tenants) {
        rec.time("wal.sync", || lane.wal.sync()).expect("wal sync");
        let bank = rec.time("tenant.checkpoint", || {
            lane.tenant.checkpoint(CHECKPOINT_TIMEOUT)
        });
        rec.time("store.save_tenant", || {
            store.save_tenant(&lane.name, spec, &bank)
        })
        .expect("save tenant");
        let covered = lane.wal.stats().appended_seq;
        rec.time("wal.compact", || lane.wal.compact(covered))
            .expect("wal compact");
    }
}

/// The shard runtime alone: dispatch for ingests, and the clone and
/// freeze of a serving-view refresh for reads.
fn runtime_pass(rec: &mut Recorder, w: &Workload, seed: u64, ops: u64) {
    let mut runtimes: Vec<ShardRuntime<DynSummary>> = w
        .tenants
        .iter()
        .map(|(_, spec)| {
            let mut rt =
                ShardRuntime::new(spec.build_bank().expect("valid spec"), IngestMode::Auto);
            for batch in &w.pool[..PRELOAD_BATCHES] {
                rt.dispatch_ref(0, batch);
            }
            rt
        })
        .collect();
    for op in sequence(w, seed, ops) {
        let root = rec.enter("layers");
        if let Op::Ingest { tenant, batch } = op {
            let rt = &mut runtimes[tenant];
            rec.time("pipeline.dispatch", || rt.dispatch_ref(0, &w.pool[batch]));
        }
        if let Some(t) = read_target(op) {
            let bank = rec.time("pipeline.clone_bank", || {
                runtimes[t].map_summaries(Clone::clone)
            });
            let frozen = rec.time("pipeline.freeze", || {
                Frozen::new(bank.into_iter().next().expect("one shard"))
            });
            std::hint::black_box(frozen.report().len());
        }
        rec.exit(root);
    }
}

/// The bare summary kernel: inserts for ingests, a merge into a fresh
/// summary for reads, and the range calls for polls. Returns the
/// kernels' summed snapshot size at the end.
fn kernel_pass(rec: &mut Recorder, w: &Workload, seed: u64, ops: u64) -> u64 {
    let fresh = |spec: &hh_server::TenantSpec| spec.build_bank().expect("valid spec").remove(0);
    let empties: Vec<DynSummary> = w.tenants.iter().map(|(_, s)| fresh(s)).collect();
    let mut kernels: Vec<DynSummary> = w
        .tenants
        .iter()
        .map(|(_, spec)| {
            let mut k = fresh(spec);
            for batch in &w.pool[..PRELOAD_BATCHES] {
                k.insert_batch(batch);
            }
            k
        })
        .collect();
    for op in sequence(w, seed, ops) {
        let root = rec.enter("layers");
        match op {
            Op::Ingest { tenant, batch } => {
                let k = &mut kernels[tenant];
                rec.time("kernel.insert", || k.insert_batch(&w.pool[batch]));
            }
            Op::Poll { tenant, range } => {
                let (lo, hi) = w.ranges[range];
                let k = &kernels[tenant];
                std::hint::black_box(
                    rec.time("kernel.range_estimate", || k.range_estimate(lo, hi)),
                );
                std::hint::black_box(
                    rec.time("kernel.heavy_ranges", || k.heavy_ranges(w.heavy_phi())),
                );
            }
            Op::Query { .. } | Op::Checkpoint => {}
        }
        if let Some(t) = read_target(op) {
            let mut target = empties[t].clone();
            rec.time("kernel.merge", || target.merge_from(&kernels[t]))
                .expect("same-spec merge");
        }
        rec.exit(root);
    }
    if w.ranges.is_empty() {
        range_probe(rec, w);
    }
    kernels.iter().map(|k| k.to_bytes().len() as u64).sum()
}

/// Times the range kernel on a workload without a range tenant, so
/// `kernel.range_estimate` and `kernel.heavy_ranges` are measured on
/// every workload: a Dyadic summary of `range_telemetry`'s spec, fed
/// this workload's first pool batch, asked about each /8 block.
fn range_probe(rec: &mut Recorder, w: &Workload) {
    let spec = range_spec();
    let mut k = spec.build_bank().expect("valid spec").remove(0);
    k.insert_batch(&w.pool[0]);
    for block in 0..256u64 {
        let lo = block << 24;
        let root = rec.enter("layers");
        std::hint::black_box(rec.time("kernel.range_estimate", || {
            k.range_estimate(lo, lo | 0xFF_FFFF)
        }));
        if block % 8 == 0 {
            std::hint::black_box(rec.time("kernel.heavy_ranges", || k.heavy_ranges(spec.phi)));
        }
        rec.exit(root);
    }
}
