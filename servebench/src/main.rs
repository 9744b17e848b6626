//! Serving benchmark for `hh-server`: closed-loop durable ingest, hot
//! reads and range telemetry against an in-process daemon over
//! loopback TCP, with the write-ahead log on.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload ingest_durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a readable report, then as its last line one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when any correctness check fails. See
//! README.md for the workloads, the metrics and why the load is shaped
//! the way it is.

mod inproc;
mod live;
mod procstat;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{median, percentile};
use workload::{Name, Workload};

/// Set-up and recovery are each repeated this many times per run and
/// reported as medians.
const REPS: usize = 15;

/// Untimed set-up and recovery rounds before the timed ones. The first
/// rounds in a process page in fresh memory for every large buffer
/// (Algo2's 17 MB bank and its clones) until the allocator has freed
/// and kept such buffers; on `ingest_durable` the first three or four
/// set-ups took ~80 ms and the later ones ~55 ms.
const WARMUP: usize = 4;

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let workload = Name::parse(workload).ok_or(format!(
        "unknown workload {workload:?}; one of ingest_durable, query_hot, range_telemetry"
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let code = run(&args);
    std::process::exit(code);
}

/// One run; returns the exit code. Every resource it creates is owned
/// here, so all of it is released before `main` exits.
fn run(args: &Args) -> i32 {
    let w = Workload::new(args.workload, args.seed);
    let cwd = std::env::current_dir().expect("current directory");
    let root_path: PathBuf = cwd.join(".servebench_run").join(format!(
        "{}-{}-{}",
        args.workload.as_str(),
        args.seed,
        std::process::id()
    ));
    let root = match live::RunRoot::create(root_path.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "servebench: refusing to start, store root {}: {e}",
                root_path.display()
            );
            return 2;
        }
    };

    let mut problems: Vec<String> = Vec::new();
    let mut setup_s = Vec::new();
    let mut recovery_s = Vec::new();
    // Set-up and the recovery drill on a fresh root: WARMUP untimed
    // rounds, then REPS timed ones. The first timed round's restarted
    // server serves the measured phase.
    let mut rep = |r: usize, problems: &mut Vec<String>| {
        let dir = root.path().join(format!("rep{r}"));
        let mut tally = live::Tally::new(&w);
        let (server, client, setup) = live::setup(&dir, &w, &mut tally);
        let (server, client, recovery) =
            live::recovery_drill(server, client, &dir, &w, &mut tally, problems);
        if r >= WARMUP {
            setup_s.push(setup);
            recovery_s.push(recovery);
        }
        (server, client, tally, dir)
    };
    let mut warmup = live::Tally::new(&w);
    for r in 0..WARMUP {
        let (server, client, tally, dir) = rep(r, &mut problems);
        warmup.absorb(tally);
        drop(client);
        live::kill(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // `all` holds everything acked into the measured server's tenants
    // until the live range check, then every op of the run.
    let (server, mut client, mut all, _) = rep(WARMUP, &mut problems);

    let phase = live::closed_loop(&server, &w, args.seed, args.seconds, false);
    let peak_rss_mb = procstat::peak_rss_bytes() as f64 / 1e6;
    all.absorb(phase.tallies.clone());
    live::check_live_ranges(&mut client, &w, &all, &mut problems);
    let reads = live::read_back(&mut client, &w);
    all.absorb(reads.clone());
    all.absorb(warmup);

    let per_layer = args.trace.then(|| {
        let (metrics, traced_ops) = traced(&server, &w, args, &phase, root.path(), &mut problems);
        all.absorb(traced_ops);
        metrics
    });

    let acc = live::verify(&mut client, &w, &mut all, &mut problems);
    drop(client);
    live::kill(server);
    for r in WARMUP + 1..WARMUP + REPS {
        let (server, client, tally, dir) = rep(r, &mut problems);
        all.absorb(tally);
        drop(client);
        live::kill(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    drop(root);

    if all.items_acked != all.items_sent {
        problems.push(format!(
            "items acked {} != items sent {}",
            all.items_acked, all.items_sent
        ));
    }
    problems.extend(all.errors.iter().cloned());

    let t = &phase.tallies;
    let read_us = if w.read_back > 0 {
        &reads.query_us
    } else {
        &t.query_us
    };
    // The workload's main operation: reads on `query_hot`, acked
    // ingests on the others.
    let op_us = if args.workload.reads() {
        read_us
    } else {
        &t.ingest_us
    };
    let ops = t.attempted as f64;
    let pct = |v: &[f64], q: f64, what: &str, problems: &mut Vec<String>| {
        percentile(v, q).unwrap_or_else(|| {
            problems.push(format!(
                "{what}: {} samples cannot support p{}",
                v.len(),
                q * 100.0
            ));
            f64::NAN
        })
    };
    let (window_ops, window_items) = live::window_rates(&t.completions, args.seconds);
    let ops_per_s = median(&window_ops);
    let items_per_s = median(&window_items);
    let end_to_end: Vec<Metric> = vec![
        ("setup_s".into(), median(&setup_s), "s"),
        (
            "op_p50_us".into(),
            pct(op_us, 0.5, "main op", &mut problems),
            "us",
        ),
        (
            "cpu_us_per_op".into(),
            phase.process_cpu_s * 1e6 / ops,
            "us",
        ),
        ("recovery_s".into(), median(&recovery_s), "s"),
        ("max_err_eps".into(), acc.max_err_eps, "ratio"),
        (
            "recall_phi".into(),
            acc.reported_heavy as f64 / acc.must_report.max(1) as f64,
            "ratio",
        ),
    ];

    println!(
        "servebench {} seed {} ({} s measured, {} clients, closed loop)",
        args.workload.as_str(),
        args.seed,
        args.seconds,
        w.clients
    );
    println!(
        "  ops {} (ingest {}, read {}, checkpoint {}), read-back {}, failed {}, error_rate {:.6}",
        t.attempted,
        t.ingest_us.len(),
        t.query_us.len(),
        t.checkpoints,
        reads.query_us.len(),
        all.failed,
        all.failed as f64 / all.attempted.max(1) as f64
    );
    println!(
        "  host steal {:.2}% over the measured phase",
        phase.steal_pct
    );
    println!("  window steal % {:.1?}", phase.window_steal_pct);
    println!("  window ops/s {window_ops:.0?}");
    for (name, ns) in &phase.thread_cpu_ns {
        println!("  thread cpu {name:<16} {:>10.3} s", *ns as f64 / 1e9);
    }
    // p99 is printed, not reported: it moves by milliseconds between
    // identical runs, and range_telemetry's few hundred polls cannot
    // support it.
    let p99 = |v: &[f64]| percentile(v, 0.99).map_or("n/a".into(), |x| format!("{x:.1} us"));
    println!(
        "  tail p99: ingest {}, query {} (n/a: fewer than 10 samples beyond)",
        p99(&t.ingest_us),
        p99(read_us)
    );
    println!(
        "  server stops that waited out the checkpoint interval: {}",
        live::slow_stops()
    );
    println!("  setup_s samples {setup_s:.4?}");
    println!("  recovery_s samples {recovery_s:.4?}");
    let diagnostics: Vec<Metric> = vec![
        (
            "load.ingest_p50_us".into(),
            pct(&t.ingest_us, 0.5, "ingest", &mut problems),
            "us",
        ),
        (
            "load.query_p50_us".into(),
            pct(read_us, 0.5, "query", &mut problems),
            "us",
        ),
        (
            "tail.ingest_p90_us".into(),
            percentile(&t.ingest_us, 0.9).unwrap_or(0.0),
            "us",
        ),
        (
            "tail.query_p90_us".into(),
            percentile(read_us, 0.9).unwrap_or(0.0),
            "us",
        ),
        (
            "tail.samples".into(),
            (t.ingest_us.len() + read_us.len()) as f64,
            "count",
        ),
        ("load.ingest_items_per_s".into(), items_per_s, "items/s"),
        ("load.ops_per_s".into(), ops_per_s, "ops/s"),
        ("host.steal_pct".into(), phase.steal_pct, "%"),
        ("mem.peak_rss_mb".into(), peak_rss_mb, "MB"),
    ];
    for (name, v, unit) in end_to_end.iter().chain(&diagnostics) {
        println!("  {name:<28} {v:>14.4} {unit}");
    }
    let metrics = match &per_layer {
        Some(per_layer) => {
            for (name, v, unit) in per_layer {
                println!("  {name:<28} {v:>14.4} {unit}");
            }
            per_layer.iter().chain(&diagnostics).cloned().collect()
        }
        None => end_to_end,
    };
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        all.attempted.max(1),
        all.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// The traced run: the same closed loop again with a root span around
/// every other client call, a ping sweep, then the in-process replay.
/// `measured` is the untraced measured phase, whose server counters and
/// thread CPU the per-layer figures divide. Returns the per-layer
/// metrics and the tally of the traced live phase. A layer timed fewer
/// than [`inproc::MIN_SAMPLES`] times reads as NaN, which fails the run.
fn traced(
    server: &hh_server::Server,
    w: &Workload,
    args: &Args,
    measured: &live::PhaseStats,
    root: &std::path::Path,
    problems: &mut Vec<String>,
) -> (Vec<Metric>, live::Tally) {
    let live_phase = live::closed_loop(server, w, args.seed, args.seconds, true);
    let (main_op, untraced_main) = if args.workload.reads() {
        ("query", &live_phase.untraced.query_us)
    } else {
        ("ingest", &live_phase.untraced.ingest_us)
    };
    let mut live_roots: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rec in &live_phase.recorders {
        for (name, v) in trace::self_times_by_name(rec.spans()) {
            live_roots.entry(name).or_default().extend(v);
        }
    }
    let mut pinger = live::connect(server);
    let pings: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            pinger.ping().expect("ping");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(pinger);

    let dir = root.join("inproc");
    let max_ops = match args.workload {
        Name::IngestDurable => 1500,
        Name::QueryHot => 40_000,
        Name::RangeTelemetry => 600,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let rp = inproc::replay(w, args.seed, &dir, max_ops, deadline);
    println!("  in-process replay: {} ops", rp.ops);
    let selfs = trace::self_times_by_name(rp.rec.spans());
    let mut p50 = |name: &str| match selfs.get(name) {
        Some(v) if v.len() >= inproc::MIN_SAMPLES => median(v),
        found => {
            problems.push(format!(
                "span {name}: {} timings, fewer than {}",
                found.map_or(0, Vec::len),
                inproc::MIN_SAMPLES
            ));
            f64::NAN
        }
    };
    let frame_bytes: Vec<f64> = rp.frame_bytes.iter().map(|&b| (b + 4) as f64).collect();

    // The served ingest path's children, summed per op, against the
    // live round trip of the same op.
    let path_sum: f64 = trace::child_totals_per_root(rp.rec.spans(), main_op)
        .values()
        .map(|v| median(v))
        .sum();
    let live_main = live_roots.get(main_op).map_or(f64::NAN, |v| median(v));

    let ph = measured;
    let acks = ph
        .health_after
        .wal_appended
        .saturating_sub(ph.health_before.wal_appended);
    let fsyncs = ph
        .health_after
        .wal_fsyncs
        .saturating_sub(ph.health_before.wal_fsyncs);
    let ops = ph.tallies.attempted.max(1) as f64;
    let cpu = |name: &str| ph.thread_cpu_ns.get(name).copied().unwrap_or(0) as f64 / 1e3;

    let m = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
    let per_layer = vec![
        m("wal.append_us", p50("wal.append"), "us"),
        m("wal.commit_us", p50("wal.commit"), "us"),
        m(
            "wal.fsyncs_per_ack",
            fsyncs as f64 / acks.max(1) as f64,
            "ratio",
        ),
        m(
            "wal.max_commit_wait_us",
            ph.health_after.wal_max_commit_wait_us as f64,
            "us",
        ),
        m(
            "cpu.wal_commit_us_per_ack",
            cpu("hh-wal-commit") / acks.max(1) as f64,
            "us",
        ),
        m(
            "wal.bytes_per_item",
            rp.wal_bytes as f64 / rp.items.max(1) as f64,
            "bytes",
        ),
        m("proto.request_encode_us", p50("proto.request_encode"), "us"),
        m("proto.request_decode_us", p50("proto.request_decode"), "us"),
        m(
            "proto.response_encode_us",
            p50("proto.response_encode"),
            "us",
        ),
        m(
            "proto.response_decode_us",
            p50("proto.response_decode"),
            "us",
        ),
        m("proto.write_frame_us", p50("proto.write_frame"), "us"),
        m("proto.read_frame_us", p50("proto.read_frame"), "us"),
        m("proto.frame_bytes", median(&frame_bytes), "bytes"),
        m("conn.ping_p50_us", median(&pings), "us"),
        m("cpu.conn_us_per_op", cpu("hh-server-conn") / ops, "us"),
        m(
            "kernel.insert_ns_per_item",
            p50("kernel.insert") * 1e3 / rp.batch_len as f64,
            "ns",
        ),
        m(
            "kernel.range_estimate_us",
            p50("kernel.range_estimate"),
            "us",
        ),
        m("kernel.heavy_ranges_us", p50("kernel.heavy_ranges"), "us"),
        m("kernel.merge_us", p50("kernel.merge"), "us"),
        m("kernel.heap_bytes", rp.heap_bytes as f64, "bytes"),
        m("kernel.snapshot_bytes", rp.snapshot_bytes as f64, "bytes"),
        m("pipeline.dispatch_us", p50("pipeline.dispatch"), "us"),
        m("pipeline.clone_bank_us", p50("pipeline.clone_bank"), "us"),
        m("pipeline.freeze_us", p50("pipeline.freeze"), "us"),
        m("tenant.query_fresh_us", p50("tenant.query_fresh"), "us"),
        m("tenant.query_hot_us", p50("tenant.query_hot"), "us"),
        m("tenant.ingest_us", p50("tenant.ingest"), "us"),
        m("server.budget_check_us", p50("server.budget_check"), "us"),
        m("server.unaccounted_us", live_main - path_sum, "us"),
        m("store.save_tenant_ms", p50("store.save_tenant") / 1e3, "ms"),
        m("store.load_all_ms", p50("store.load_all") / 1e3, "ms"),
        m("tenant.checkpoint_ms", p50("tenant.checkpoint") / 1e3, "ms"),
        m(
            "durability.encode_frame_us",
            p50("durability.encode_frame"),
            "us",
        ),
        m(
            "durability.decode_frame_us",
            p50("durability.decode_frame"),
            "us",
        ),
        m(
            "wal.replay_records_per_s",
            rp.replay_records_per_s,
            "records/s",
        ),
        m("facade.build_bank_ms", p50("facade.build_bank") / 1e3, "ms"),
        m("cpu.client_us_per_op", cpu(live::CLIENT_THREAD) / ops, "us"),
        m(
            "trace.overhead_pct",
            100.0 * (live_main / median(untraced_main) - 1.0),
            "%",
        ),
    ];
    (per_layer, live_phase.tallies)
}
