//! Serve latency bench — closed-loop clients against an in-process daemon.
//!
//! Generates a 10k-cell mcl-gen benchmark, writes it as a Bookshelf bundle,
//! then drives an in-process [`Server`] (report dir and write-ahead journal
//! enabled, so the measured path includes the fsync the real daemon pays)
//! with closed-loop client threads at concurrency 1, 4 and 16. Each client
//! submits a `legalize` job, waits for the final line, and immediately
//! submits the next; `RETRY_AFTER` responses are honoured (sleep, retry)
//! and counted.
//!
//! Per-job wall times (send → final line, queue wait included) are reduced
//! to p50/p99 per concurrency level and a `serve` entry — `p50_ms`,
//! `p99_ms`, `jobs_per_sec`, `rejected` arrays indexed by concurrency — is
//! spliced into `BENCH_mgl.json` next to the eco/scale sections, so the
//! service-latency trajectory is tracked per PR.
//!
//! Knobs: `MCL_SERVE_CELLS` (default 10000), `MCL_SERVE_JOBS` (jobs per
//! concurrency level, default 24), `MCL_SERVE_THREADS` (engine threads,
//! default 4), `MCL_SERVE_QUEUE_CAP` (default 8 — small on purpose, so the
//! 16-client level exercises admission backpressure), `MCL_SERVE_SEED`,
//! `MCL_SERVE_DENSITY_PCT` (default 45).
//!
//! CI gate: `MCL_SERVE_MAX_P99_MS` (ceiling on the single-client p99) makes
//! the binary exit non-zero on regression, so the `serve-smoke` job needs
//! no JSON post-processing.

use mcl_bench::splice_entry;
use mcl_core::config::LegalizerConfig;
use mcl_gen::{generate, GeneratorConfig};
use mcl_obs::clock::Stopwatch;
use mcl_obs::count_to_float;
use mcl_serve::json::parse;
use mcl_serve::{Client, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

/// The daemon's engine configuration: the same bounded local search the
/// scale/eco benches use, at service-grade thread count.
fn serve_engine(n: usize, threads: usize) -> LegalizerConfig {
    let mut cfg = LegalizerConfig::total_displacement();
    cfg.threads = threads;
    cfg.clamp_threads_to_hardware = false;
    cfg.max_expansions = 3;
    cfg.window_list_capacity = (n / 32).max(64);
    cfg
}

/// Nearest-rank quantile over sorted nanosecond samples; `pct` in 1..=100.
/// Integer arithmetic throughout — no float↔int casts.
fn quantile_nanos(sorted: &[u64], pct: usize) -> u64 {
    let n = sorted.len();
    let rank = (n * pct).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

fn millis(nanos: u64) -> f64 {
    count_to_float(nanos) / 1e6
}

/// One closed-loop level: `clients` threads each submit jobs until the
/// shared budget of `jobs` is spent. Returns (sorted per-job nanos,
/// jobs/sec, rejected count).
fn run_level(
    addr: std::net::SocketAddr,
    bundle: &Path,
    clients: usize,
    jobs: usize,
) -> (Vec<u64>, f64, u64) {
    let budget = Arc::new(AtomicI64::new(i64::try_from(jobs).unwrap_or(i64::MAX)));
    let rejected = Arc::new(AtomicU64::new(0));
    let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::with_capacity(jobs)));
    let req = format!(r#"{{"op":"legalize","dir":"{}"}}"#, bundle.display());

    let wall = Stopwatch::start();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let (budget, rejected, samples, req) = (
                Arc::clone(&budget),
                Arc::clone(&rejected),
                Arc::clone(&samples),
                req.clone(),
            );
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut local = Vec::new();
                while budget.fetch_sub(1, Ordering::SeqCst) > 0 {
                    let sw = Stopwatch::start();
                    loop {
                        let ack = client
                            .request(&req)
                            .expect("send")
                            .expect("ack line before EOF");
                        let doc = parse(&ack).expect("parsable ack");
                        match doc.str_field("status") {
                            Some("OK") => break,
                            Some("RETRY_AFTER") => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                let ms = doc.u64_field("retry_after_ms").unwrap_or(50);
                                std::thread::sleep(std::time::Duration::from_millis(ms));
                            }
                            other => panic!("unexpected admission status {other:?}: {ack}"),
                        }
                    }
                    let done = client.recv().expect("recv").expect("final line before EOF");
                    assert!(done.contains(r#""status":"OK""#), "job failed: {done}");
                    local.push(sw.elapsed_nanos());
                }
                samples.lock().expect("samples lock").extend(local);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let wall_s = wall.elapsed_seconds();

    let mut nanos = std::mem::take(&mut *samples.lock().expect("samples lock"));
    nanos.sort_unstable();
    let done = u64::try_from(nanos.len()).unwrap_or(u64::MAX);
    let jps = count_to_float(done) / wall_s;
    (nanos, jps, rejected.load(Ordering::Relaxed))
}

fn main() {
    let n = env_usize("MCL_SERVE_CELLS", 10_000);
    let jobs = env_usize("MCL_SERVE_JOBS", 24);
    let threads = env_usize("MCL_SERVE_THREADS", 4);
    let queue_cap = env_usize("MCL_SERVE_QUEUE_CAP", 8);
    let seed = env_usize("MCL_SERVE_SEED", 42);
    let density =
        count_to_float(u64::try_from(env_usize("MCL_SERVE_DENSITY_PCT", 45)).unwrap_or(45)) / 100.0;
    let max_p99 = env_f64("MCL_SERVE_MAX_P99_MS");

    println!(
        "# serve bench — {n} cells, {jobs} jobs/level, {threads} engine threads, queue cap \
         {queue_cap}"
    );

    let defaults = GeneratorConfig::default();
    let gen = generate(&GeneratorConfig {
        name: format!("serve_{n}"),
        seed: u64::try_from(seed).unwrap_or(42),
        num_cells: n,
        density,
        sigma_rows: 2.0,
        height_mix: [0.80, 0.20, 0.0, 0.0],
        hotspots: 0,
        fences: 0,
        fence_cell_fraction: 0.0,
        ..defaults
    })
    .expect("serve benchmark must pack");

    let root: PathBuf =
        std::env::temp_dir().join(format!("mclegal_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench temp dir");
    let bundle = root.join("bundle");
    mcl_parsers::write_bookshelf_dir(&gen.design, &bundle, &gen.design.name)
        .expect("write bench bundle");

    let levels = [1usize, 4, 16];
    let mut p50_ms = Vec::new();
    let mut p99_ms = Vec::new();
    let mut jobs_per_sec = Vec::new();
    let mut rejected_counts = Vec::new();
    for (i, &clients) in levels.iter().enumerate() {
        let mut cfg = ServeConfig::new(serve_engine(n, threads));
        cfg.queue_cap = queue_cap;
        cfg.report_dir = Some(root.join(format!("reports_{clients}")));
        cfg.journal_path = Some(root.join(format!("jobs_{clients}.journal")));
        let server = Server::start(cfg).expect("server start");
        let addr = server.local_addr();

        let (nanos, jps, rej) = run_level(addr, &bundle, clients, jobs);
        let mut c = Client::connect(addr).expect("drain connect");
        c.request(r#"{"op":"drain"}"#).expect("drain send");
        server.join();

        assert_eq!(nanos.len(), jobs, "every job must complete");
        let p50 = millis(quantile_nanos(&nanos, 50));
        let p99 = millis(quantile_nanos(&nanos, 99));
        println!(
            "conc {clients:>2}: p50 {p50:>8.2}ms  p99 {p99:>8.2}ms  {jps:>6.2} jobs/s  \
             rejected {rej}"
        );
        p50_ms.push(format!("{p50:.3}"));
        p99_ms.push(format!("{p99:.3}"));
        jobs_per_sec.push(format!("{jps:.2}"));
        rejected_counts.push(rej.to_string());
        let _ = i;
    }

    let serve_json = format!(
        "{{\"preset_cells\": {n}, \"jobs_per_level\": {jobs}, \"threads\": {threads}, \
         \"queue_cap\": {queue_cap},\n    \"concurrency\": [1, 4, 16], \"p50_ms\": [{}], \
         \"p99_ms\": [{}],\n    \"jobs_per_sec\": [{}], \"rejected\": [{}]}}",
        p50_ms.join(", "),
        p99_ms.join(", "),
        jobs_per_sec.join(", "),
        rejected_counts.join(", ")
    );
    let doc = splice_entry(
        std::fs::read_to_string("BENCH_mgl.json").ok(),
        "serve",
        &serve_json,
    );
    std::fs::write("BENCH_mgl.json", doc).expect("write BENCH_mgl.json");
    println!("[wrote BENCH_mgl.json serve entry]");
    let _ = std::fs::remove_dir_all(&root);

    if let Some(ceiling) = max_p99 {
        let solo_p99: f64 = p99_ms[0].parse().unwrap_or(f64::INFINITY);
        assert!(
            solo_p99 <= ceiling,
            "service-latency ceiling violated: single-client p99 {solo_p99:.2}ms > {ceiling}ms"
        );
        println!("p99 ok: {solo_p99:.2} <= {ceiling}ms");
    }
}

#[cfg(test)]
mod tests {
    use super::quantile_nanos;

    #[test]
    fn nearest_rank_quantiles_integer_math() {
        let s = [10, 20, 30, 40];
        assert_eq!(quantile_nanos(&s, 50), 20);
        assert_eq!(quantile_nanos(&s, 99), 40);
        assert_eq!(quantile_nanos(&[75], 99), 75);
    }
}
