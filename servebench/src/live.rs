//! Everything that talks to a real `hh-server` over loopback TCP:
//! set-up, the recovery drill, the closed-loop phase and the
//! verification pass.

use crate::procstat;
use crate::trace::Recorder;
use crate::workload::{Op, Workload, PRELOAD_BATCHES};
use hh_server::{Client, Endpoint, Server, ServerConfig, ServerHealth, MAX_BATCH};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Batches in the recovery drill's log tail (K).
pub const RECOVERY_TAIL: u64 = 16;

/// Interval of the server's periodic checkpoints: longer than any
/// server lives in a run of `--seconds 15` or less, so none fires.
///
/// It is also how long a stop can hang: `Server::kill` notifies the
/// checkpoint thread without holding its lock, so a stop that lands
/// while that thread is not yet waiting is missed, and joining the
/// thread waits out the whole interval. Kept short, such a stop costs the run
/// a minute instead of never returning; [`slow_stops`] counts them.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(60);

/// Stops that took longer than this waited out [`CHECKPOINT_EVERY`].
const SLOW_STOP: Duration = Duration::from_secs(1);

static SLOW_STOPS: AtomicU64 = AtomicU64::new(0);

/// Server stops in this run that missed the checkpoint thread's wake-up.
pub fn slow_stops() -> u64 {
    SLOW_STOPS.load(Ordering::Relaxed)
}

/// The daemon's production configuration (1 ms group commit, 4 MiB
/// segments), with periodic checkpoints pushed past the end of the
/// run: checkpoints come from `Client::checkpoint` at fixed operation
/// counts instead, so their work lands at the same points every run.
pub fn config(root: &Path) -> ServerConfig {
    let mut c = ServerConfig::new(root);
    c.checkpoint_every = CHECKPOINT_EVERY;
    c
}

pub fn start(root: &Path) -> Server {
    Server::start(config(root), Endpoint::Tcp(([127, 0, 0, 1], 0).into()))
        .unwrap_or_else(|e| panic!("server start under {}: {e}", root.display()))
}

pub fn connect(server: &Server) -> Client {
    Client::connect_tcp(server.local_addr().expect("tcp endpoint")).expect("loopback connect")
}

/// Stops `server` without a final checkpoint, once every connection
/// to it has closed (so no handler thread still holds its tenants),
/// and waits for its handler threads to exit. A handler releases its
/// admission slot just before its thread ends; waiting for the thread
/// itself lets the next server's handlers reuse its allocator arena
/// every time rather than only when they win the race, which would
/// make the peak memory of a run bimodal.
pub fn kill(server: Server) {
    let handle = server.handle();
    let until = Instant::now() + Duration::from_secs(10);
    while handle.health().active_connections > 0 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(handle);
    let stop = Instant::now();
    server.kill();
    if stop.elapsed() > SLOW_STOP {
        SLOW_STOPS.fetch_add(1, Ordering::Relaxed);
    }
    let handler = |t: &(String, u64)| t.0 == "hh-server-conn";
    while procstat::threads().values().any(handler) && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one client did in one phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub ingest_us: Vec<f64>,
    /// Latency of the workload's read op (`Query` or a whole poll).
    pub query_us: Vec<f64>,
    /// When set, each completed op is logged as (seconds since this
    /// instant, items it acked) for windowed rates.
    pub origin: Option<Instant>,
    pub completions: Vec<(f64, u64)>,
    pub checkpoints: u64,
    pub attempted: u64,
    pub failed: u64,
    pub items_sent: u64,
    pub items_acked: u64,
    /// Acked items per tenant.
    pub acked_by_tenant: Vec<u64>,
    /// Acked items inside each of the workload's ranges.
    pub acked_in_range: Vec<u64>,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn new(w: &Workload) -> Self {
        Self {
            acked_by_tenant: vec![0; w.tenants.len()],
            acked_in_range: vec![0; w.ranges.len()],
            ..Self::default()
        }
    }

    pub fn absorb(&mut self, o: Tally) {
        self.ingest_us.extend(o.ingest_us);
        self.completions.extend(o.completions);
        self.query_us.extend(o.query_us);
        self.checkpoints += o.checkpoints;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.items_sent += o.items_sent;
        self.items_acked += o.items_acked;
        for (a, b) in self.acked_by_tenant.iter_mut().zip(o.acked_by_tenant) {
            *a += b;
        }
        for (a, b) in self.acked_in_range.iter_mut().zip(o.acked_in_range) {
            *a += b;
        }
        self.errors.extend(o.errors);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Root-span name of each operation in the traced run.
pub fn op_name(op: Op) -> &'static str {
    match op {
        Op::Ingest { .. } => "ingest",
        Op::Query { .. } => "query",
        Op::Poll { .. } => "poll",
        Op::Checkpoint => "checkpoint",
    }
}

/// Issues one operation and records its outcome and latency.
pub fn run_op(c: &mut Client, w: &Workload, op: Op, tally: &mut Tally) {
    tally.attempted += 1;
    let (failed, acked) = (tally.failed, tally.items_acked);
    let t0 = Instant::now();
    match op {
        Op::Ingest { tenant, batch } => {
            let items = &w.pool[batch];
            tally.items_sent += items.len() as u64;
            match c.ingest(&w.tenants[tenant].0, 0, items) {
                Ok(accepted) => {
                    tally.ingest_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    tally.items_acked += accepted;
                    tally.acked_by_tenant[tenant] += accepted;
                    if accepted == items.len() as u64 {
                        for (a, b) in tally
                            .acked_in_range
                            .iter_mut()
                            .zip(&w.pool_range_counts[batch])
                        {
                            *a += b;
                        }
                    }
                }
                Err(e) => tally.fail(format!("ingest: {e}")),
            }
        }
        Op::Query { tenant } => match c.query(&w.tenants[tenant].0) {
            Ok(_) => tally.query_us.push(t0.elapsed().as_secs_f64() * 1e6),
            Err(e) => tally.fail(format!("query: {e}")),
        },
        Op::Poll { tenant, range } => {
            let name = &w.tenants[tenant].0;
            let (lo, hi) = w.ranges[range];
            match c
                .range_query(name, lo, hi)
                .and_then(|_| c.heavy_ranges(name, w.heavy_phi()))
            {
                Ok(_) => tally.query_us.push(t0.elapsed().as_secs_f64() * 1e6),
                Err(e) => tally.fail(format!("poll: {e}")),
            }
        }
        Op::Checkpoint => match c.checkpoint() {
            Ok(_) => tally.checkpoints += 1,
            Err(e) => tally.fail(format!("checkpoint: {e}")),
        },
    }
    if let (Some(origin), true) = (tally.origin, tally.failed == failed) {
        let at = origin.elapsed().as_secs_f64();
        tally.completions.push((at, tally.items_acked - acked));
    }
}

/// Starts a server on `root`, creates the workload's tenants and
/// preloads them, then reads each once so every serving view is warm.
/// Returns the server, the set-up client and the seconds it took.
pub fn setup(root: &Path, w: &Workload, tally: &mut Tally) -> (Server, Client, f64) {
    let t0 = Instant::now();
    let server = start(root);
    let mut c = connect(&server);
    for (name, spec) in &w.tenants {
        c.create(name, *spec)
            .unwrap_or_else(|e| panic!("create {name}: {e}"));
    }
    for tenant in 0..w.tenants.len() {
        preload(&mut c, w, tenant, tally);
        run_op(&mut c, w, Op::Query { tenant }, tally);
    }
    let secs = t0.elapsed().as_secs_f64();
    // Set-up ops are not part of the latency sample.
    tally.query_us.clear();
    (server, c, secs)
}

/// Ingests the first [`PRELOAD_BATCHES`] pool batches into `tenant` in
/// as few requests as [`MAX_BATCH`] allows. One acked request per pool
/// batch would make set-up a chain of ~200 group-commit waits on
/// `query_hot`, each paying the host disk's fsync latency, and set-up
/// time would follow the disk rather than the server.
fn preload(c: &mut Client, w: &Workload, tenant: usize, tally: &mut Tally) {
    let per_request = (MAX_BATCH / w.pool[0].len()).max(1);
    for first in (0..PRELOAD_BATCHES).step_by(per_request) {
        let batches = first..(first + per_request).min(PRELOAD_BATCHES);
        let items = w.pool[batches.clone()].concat();
        tally.attempted += 1;
        tally.items_sent += items.len() as u64;
        match c.ingest(&w.tenants[tenant].0, 0, &items) {
            Ok(accepted) => {
                tally.items_acked += accepted;
                tally.acked_by_tenant[tenant] += accepted;
                if accepted == items.len() as u64 {
                    for b in batches {
                        for (a, n) in tally.acked_in_range.iter_mut().zip(&w.pool_range_counts[b]) {
                            *a += n;
                        }
                    }
                }
            }
            Err(e) => tally.fail(format!("preload ingest: {e}")),
        }
    }
}

/// The recovery drill: checkpoint, send a fixed tail of
/// [`RECOVERY_TAIL`] acked batches from one client, kill the server,
/// and time a restart on the same root until the first query returns.
/// Checks that exactly the tail was replayed and that every tenant's
/// snapshot is byte-identical to its pre-kill bytes.
pub fn recovery_drill(
    server: Server,
    mut c: Client,
    root: &Path,
    w: &Workload,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> (Server, Client, f64) {
    if let Err(e) = c.checkpoint() {
        problems.push(format!("drill checkpoint: {e}"));
    }
    for k in 0..RECOVERY_TAIL as usize {
        let tenant = k % w.tenants.len();
        run_op(
            &mut c,
            w,
            Op::Ingest {
                tenant,
                batch: PRELOAD_BATCHES + k,
            },
            tally,
        );
    }
    tally.ingest_us.clear();
    let before: Vec<Vec<u8>> = w
        .tenants
        .iter()
        .map(|(name, _)| {
            c.snapshot(name)
                .unwrap_or_else(|e| panic!("snapshot {name}: {e}"))
        })
        .collect();
    drop(c);
    kill(server);

    let t0 = Instant::now();
    let server = start(root);
    let mut c = connect(&server);
    let first = c.query(&w.tenants[0].0);
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = first {
        problems.push(format!("first query after restart: {e}"));
    }
    match c.health() {
        Ok(h) if h.wal_replayed == RECOVERY_TAIL => {}
        Ok(h) => problems.push(format!(
            "recovery replayed {} WAL records, expected {RECOVERY_TAIL}",
            h.wal_replayed
        )),
        Err(e) => problems.push(format!("health after restart: {e}")),
    }
    for ((name, _), pre) in w.tenants.iter().zip(&before) {
        match c.snapshot(name) {
            Ok(post) if &post == pre => {}
            Ok(_) => problems.push(format!(
                "{name}: snapshot after recovery differs from pre-kill bytes"
            )),
            Err(e) => problems.push(format!("snapshot {name} after restart: {e}")),
        }
    }
    (server, c, secs)
}

/// Thread and host readings around a closed-loop phase.
pub struct PhaseStats {
    /// Every operation of the phase.
    pub tallies: Tally,
    /// When traced, the operations issued without a root span.
    pub untraced: Tally,
    pub process_cpu_s: f64,
    pub thread_cpu_ns: std::collections::BTreeMap<String, u64>,
    pub steal_pct: f64,
    /// Host steal in each [`WINDOW_S`] window of the phase.
    pub window_steal_pct: Vec<f64>,
    pub health_before: ServerHealth,
    pub health_after: ServerHealth,
    /// One recorder per client when traced.
    pub recorders: Vec<Recorder>,
}

/// Width of the windows rates are measured over, in seconds.
pub const WINDOW_S: f64 = 0.5;

/// Whole windows in a phase of `seconds`.
pub fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

/// Operations and acked items per second in each whole window of a
/// phase of `seconds`.
pub fn window_rates(completions: &[(f64, u64)], seconds: f64) -> (Vec<f64>, Vec<f64>) {
    let n = windows(seconds);
    let mut ops = vec![0.0; n];
    let mut items = vec![0.0; n];
    for &(at, acked) in completions {
        let k = (at / WINDOW_S) as usize;
        if k < n {
            ops[k] += 1.0 / WINDOW_S;
            items[k] += acked as f64 / WINDOW_S;
        }
    }
    (ops, items)
}

/// Thread name of the benchmark's client threads.
pub const CLIENT_THREAD: &str = "sb-client";

/// Runs the workload's closed-loop clients against `server` for `seconds`:
/// each sends its next operation only after the previous one returned.
/// With `traced`, every other client call gets a root span, so the
/// recorder's cost shows as the gap between the two halves' latencies
/// in one phase, under the same host conditions.
pub fn closed_loop(
    server: &Server,
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> PhaseStats {
    let mut control = connect(server);
    let start = Barrier::new(w.clients + 1);
    let done = Barrier::new(w.clients + 1);
    let release = Barrier::new(w.clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients)
            .map(|i| {
                let (start, done, release) = (&start, &done, &release);
                std::thread::Builder::new()
                    .name(CLIENT_THREAD.to_string())
                    .spawn_scoped(s, move || {
                        let mut c = connect(server);
                        let mut tally = Tally::new(w);
                        let mut untraced = Tally::new(w);
                        let mut rec = Recorder::new();
                        start.wait();
                        tally.origin = Some(Instant::now());
                        untraced.origin = tally.origin;
                        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                        for (k, op) in w.ops(i, seed).enumerate() {
                            if Instant::now() >= deadline {
                                break;
                            }
                            if !traced {
                                run_op(&mut c, w, op, &mut tally);
                            } else if k % 2 == 0 {
                                let id = rec.enter(op_name(op));
                                run_op(&mut c, w, op, &mut tally);
                                rec.exit(id);
                            } else {
                                run_op(&mut c, w, op, &mut untraced);
                            }
                        }
                        done.wait();
                        // Stay connected until the main thread has read
                        // the per-thread CPU of the handler threads.
                        release.wait();
                        (tally, untraced, rec)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        let health_before = control.health().expect("health before phase");
        let threads0 = procstat::threads();
        let cpu0 = procstat::process_cpu_ns();
        let ticks0 = procstat::host_ticks();
        start.wait();
        let t0 = Instant::now();
        // Sample host steal at every window boundary.
        let mut window_steal_pct = Vec::new();
        let mut ticks = ticks0;
        for k in 1..=windows(seconds) {
            let due = t0 + Duration::from_secs_f64(k as f64 * WINDOW_S);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = procstat::host_ticks();
            window_steal_pct.push(procstat::steal_pct(ticks, now));
            ticks = now;
        }
        done.wait();
        let process_cpu_s = (procstat::process_cpu_ns() - cpu0) as f64 / 1e9;
        let thread_cpu_ns = procstat::cpu_by_name(&threads0, &procstat::threads());
        let steal_pct = procstat::steal_pct(ticks0, procstat::host_ticks());
        let health_after = control.health().expect("health after phase");
        release.wait();
        let mut tallies = Tally::new(w);
        let mut untraced_all = Tally::new(w);
        let mut recorders = Vec::new();
        for h in handles {
            let (tally, untraced, rec) = h.join().expect("client thread");
            tallies.absorb(tally);
            untraced_all.absorb(untraced);
            recorders.push(rec);
        }
        tallies.absorb(untraced_all.clone());
        PhaseStats {
            tallies,
            untraced: untraced_all,
            process_cpu_s,
            thread_cpu_ns,
            steal_pct,
            window_steal_pct,
            health_before,
            health_after,
            recorders,
        }
    })
}

/// The read-back of a workload whose clients only write
/// ([`Workload::read_back_ops`]) from one client, so every read pays the
/// serving-view refresh that follows a write. A read of an unchanged
/// view is a bare round trip, and on a 2-vCPU VM its p50 moved between
/// 11 and 33 µs from run to run with how the scheduler placed the
/// threads.
pub fn read_back(c: &mut Client, w: &Workload) -> Tally {
    let mut tally = Tally::new(w);
    for op in w.read_back_ops() {
        run_op(c, w, op, &mut tally);
    }
    // The ingests only make the next read refresh the view; the
    // workload's ingest latency is the measured phase's.
    tally.ingest_us.clear();
    tally
}

/// Accuracy of the verification pass, against Definition 1.
#[derive(Debug, Default)]
pub struct Accuracy {
    /// max |f̂ − f| / (εm) over reported items.
    pub max_err_eps: f64,
    /// Items with f ≥ φm, and how many of them were reported.
    pub must_report: u64,
    pub reported_heavy: u64,
}

/// Feeds a fresh tenant of each of the workload's specs the fixed
/// verification stream from one client, reads it back over the wire
/// and checks BDW16 Definition 1 against exact counts: every reported
/// estimate within εm, every item with f ≥ φm reported, no item with
/// f ≤ (φ−ε)m reported; on range tenants also every planted block's
/// range estimate within εm.
pub fn verify(
    c: &mut Client,
    w: &Workload,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Accuracy {
    let mut acc = Accuracy::default();
    for (t, (name, spec)) in w.tenants.iter().enumerate() {
        let vname = format!("verify-{t}");
        c.create(&vname, *spec)
            .unwrap_or_else(|e| panic!("create {vname}: {e}"));
        let stream = w.verify_stream(t);
        for chunk in stream.chunks(8192) {
            tally.attempted += 1;
            tally.items_sent += chunk.len() as u64;
            match c.ingest(&vname, 0, chunk) {
                Ok(n) => tally.items_acked += n,
                Err(e) => tally.fail(format!("verify ingest: {e}")),
            }
        }
        tally.attempted += 1;
        let report = match c.query(&vname) {
            Ok((entries, _)) => entries,
            Err(e) => {
                tally.fail(format!("verify query: {e}"));
                continue;
            }
        };
        let exact = hh_streams::ExactCounts::from_stream(&stream);
        let m = exact.len() as f64;
        let (eps, phi) = (spec.eps, spec.phi);
        // The Misra–Gries primitive reports every live counter and
        // leaves thresholding to the caller: keep estimates above
        // (φ−ε)m, which its undercount of at most εm makes exact.
        let caller_thresholds = spec.kind == hh_server::SummaryKind::MisraGries;
        let reported: std::collections::HashMap<u64, f64> = report
            .into_iter()
            .filter(|&(_, est)| !caller_thresholds || est > (phi - eps) * m)
            .collect();
        for (&item, &est) in &reported {
            let f = exact.freq(item) as f64;
            let err = (est - f).abs() / (eps * m);
            acc.max_err_eps = acc.max_err_eps.max(err);
            if err > 1.0 {
                problems.push(format!(
                    "{name}: item {item} estimate {est} vs exact {f}, beyond eps*m"
                ));
            }
            if f <= (phi - eps) * m {
                problems.push(format!(
                    "{name}: item {item} with f = {f} <= (phi-eps)m reported"
                ));
            }
        }
        for (item, f) in exact.sorted_counts() {
            if (f as f64) < phi * m {
                break;
            }
            acc.must_report += 1;
            if reported.contains_key(&item) {
                acc.reported_heavy += 1;
            } else {
                problems.push(format!(
                    "{name}: heavy item {item} with f = {f} not reported"
                ));
            }
        }
        if !w.ranges.is_empty() {
            verify_ranges(c, w, &vname, *spec, &stream, &mut acc, tally, problems);
        }
    }
    acc
}

/// Definition 1 lifted to id ranges, for range tenants: every planted
/// block's range estimate within εm, every block with mass ≥ φm in the
/// heavy-range forest, and no forest node with mass ≤ (φ−ε)m.
#[allow(clippy::too_many_arguments)]
fn verify_ranges(
    c: &mut Client,
    w: &Workload,
    vname: &str,
    spec: hh_server::TenantSpec,
    stream: &[u64],
    acc: &mut Accuracy,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) {
    let mut sorted = stream.to_vec();
    sorted.sort_unstable();
    let mass = |lo: u64, hi: u64| {
        (sorted.partition_point(|&x| x <= hi) - sorted.partition_point(|&x| x < lo)) as f64
    };
    let m = stream.len() as f64;
    let (eps, phi) = (spec.eps, spec.phi);
    tally.attempted += 1;
    let forest = match c.heavy_ranges(vname, phi) {
        Ok((entries, _)) => entries,
        Err(e) => return tally.fail(format!("verify heavy ranges: {e}")),
    };
    for &(level, lo, hi, est) in &forest {
        let f = mass(lo, hi);
        acc.max_err_eps = acc.max_err_eps.max((est - f).abs() / (eps * m));
        if f <= (phi - eps) * m {
            problems.push(format!(
                "{vname}: /{level} range at {lo:#x} with mass {f} <= (phi-eps)m reported"
            ));
        }
    }
    for (i, &(lo, hi)) in w.ranges.iter().enumerate().take(w.planted) {
        tally.attempted += 1;
        let f = mass(lo, hi);
        match c.range_query(vname, lo, hi) {
            Ok((est, _)) => {
                let err = (est - f).abs() / (eps * m);
                acc.max_err_eps = acc.max_err_eps.max(err);
                if err > 1.0 {
                    problems.push(format!(
                        "{vname}: planted block {i} estimate {est} vs exact {f}"
                    ));
                }
            }
            Err(e) => tally.fail(format!("verify range query: {e}")),
        }
        if f >= phi * m {
            acc.must_report += 1;
            if forest.iter().any(|&(_, a, b, _)| a == lo && b == hi) {
                acc.reported_heavy += 1;
            } else {
                problems.push(format!(
                    "{vname}: heavy planted block {i} missing from the forest"
                ));
            }
        }
    }
}

/// Checks the live range tenant's planted-block estimates against the
/// exact counts of everything acked into it.
pub fn check_live_ranges(c: &mut Client, w: &Workload, acked: &Tally, problems: &mut Vec<String>) {
    for (i, &(lo, hi)) in w.ranges.iter().enumerate().take(w.planted) {
        let (name, spec) = &w.tenants[0];
        let m = acked.acked_by_tenant[0] as f64;
        match c.range_query(name, lo, hi) {
            Ok((est, _)) => {
                let f = acked.acked_in_range[i] as f64;
                if (est - f).abs() > spec.eps * m {
                    problems.push(format!(
                        "live block {i}: estimate {est} vs exact {f} (m = {m})"
                    ));
                }
            }
            Err(e) => problems.push(format!("live range query: {e}")),
        }
    }
}

/// A store root used for one run only: refused if it already exists,
/// removed on every exit path (dropped on return and during a panic's
/// unwinding alike).
pub struct RunRoot {
    path: PathBuf,
}

impl RunRoot {
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // create_dir, not create_dir_all: an existing root is refused.
        std::fs::create_dir(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::RunRoot;

    #[test]
    fn run_root_is_fresh_and_removed_on_every_exit() {
        let base = std::env::temp_dir().join(format!("servebench-root-{}", std::process::id()));
        let path = base.join("run");
        let root = RunRoot::create(path.clone()).expect("fresh root");
        std::fs::write(path.join("segment"), b"x").expect("write inside the root");
        assert!(
            RunRoot::create(path.clone()).is_err(),
            "an existing root is refused"
        );
        drop(root);
        assert!(!path.exists(), "removed on return");
        let unwound = std::panic::catch_unwind(|| {
            let _root = RunRoot::create(path.clone()).expect("fresh root");
            panic!("a run dies mid-way");
        });
        assert!(unwound.is_err());
        assert!(!base.exists(), "removed while unwinding, parent too");
    }
}
