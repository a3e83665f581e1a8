//! Open-loop load on the resident `ccserve` daemon.
//!
//! Every prior bench measures the checker as a library; this axis measures
//! the *service*: an in-process daemon under an open-loop arrival stream —
//! requests are issued on a fixed schedule regardless of completion, so
//! queueing pressure is real and the bounded admission queue actually
//! sheds.  The workload mixes Table II protocols (auto-selected quick
//! valuations) with generated families (`ccprotocols::family`) over a few
//! seeds, with enough repetition that the cross-request result cache gets
//! exercised.
//!
//! Reported metrics (the service-level axis of `BENCH_serve.json`):
//! requests/sec (terminal responses over the measurement window), p50/p99
//! end-to-end latency of answered requests, the shed rate of the admission
//! queue, and the result-cache hit rate.
//!
//! A second, restart variant runs the same stream against a daemon with a
//! durable cache log, restarts the daemon, and replays the stream: it
//! reports the recovery time (log replay to first answered ping) and the
//! post-restart cache hit rate, asserting the recovered cache retains at
//! least 0.8 of the warm hit rate.
//!
//! Run with `BENCH_JSON=$PWD/BENCH_serve.json cargo bench -p ccbench
//! --bench serve_load` from the repository root to capture the numbers
//! there (a relative path lands under `crates/bench/`, where cargo runs the
//! bench).

use ccprotocols::family::{FamilyParams, FaultModel};
use ccserve::server::{ServeConfig, Server};
use ccserve::wire::{CheckRequest, Priority, Request, Response, Source};
use ccserve::ServeClient;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests in the open-loop stream.
const TOTAL_REQUESTS: u64 = 120;
/// Arrival interval of the open-loop schedule.
const ARRIVAL_INTERVAL: Duration = Duration::from_millis(5);
/// Connections the stream is spread over.
const CONNECTIONS: usize = 4;
/// Per-request deadline, bounding worst-case service time.
const DEADLINE_MS: u64 = 250;

fn tiny_family() -> FamilyParams {
    FamilyParams {
        phases: 1,
        width: 1,
        fanout: 1,
        guard_density: 0,
        shared_vars: 1,
        coin_vars: 2,
        faults: FaultModel::Byzantine,
        resilience: 2,
    }
}

/// The request mix: Table II protocols and generated family points, cycled
/// so repeats hit the result cache.
fn request_source(n: u64) -> Source {
    match n % 8 {
        0 => Source::Protocol("Rabin83".into()),
        1 => Source::Family {
            params: tiny_family(),
            seed: n % 3,
        },
        2 => Source::Protocol("CC85(a)".into()),
        3 => Source::Family {
            params: FamilyParams::default(),
            seed: n % 2,
        },
        4 => Source::Protocol("FMR05".into()),
        5 => Source::Family {
            params: tiny_family(),
            seed: 7,
        },
        6 => Source::Protocol("KS16".into()),
        _ => Source::Family {
            params: FamilyParams {
                faults: FaultModel::Crash,
                ..tiny_family()
            },
            seed: n % 3,
        },
    }
}

fn check_request(id: u64) -> Request {
    Request::Check(CheckRequest {
        id,
        priority: match id % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        },
        deadline_ms: DEADLINE_MS,
        source: request_source(id),
        valuations: vec![],
        obligations: vec![],
        progress: false,
        park_on_interrupt: false,
    })
}

struct LoadReport {
    wall: Duration,
    latencies: Vec<Duration>,
    answered: u64,
    shed: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Drives the open-loop stream and collects per-request latencies.
fn run_open_loop(server: &Server, addr: std::net::SocketAddr) -> LoadReport {
    let send_times: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let started = Instant::now();

    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..CONNECTIONS {
        let client = ServeClient::connect_tcp(addr).expect("connect");
        receivers.push(client.try_clone().expect("receive half"));
        senders.push(client);
    }

    // receivers: one thread per connection, each drains its share of
    // terminal responses and records end-to-end latency
    let per_conn = TOTAL_REQUESTS / CONNECTIONS as u64;
    let mut handles = Vec::new();
    for mut receiver in receivers {
        let send_times = Arc::clone(&send_times);
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::new();
            let mut answered = 0u64;
            let mut shed = 0u64;
            for _ in 0..per_conn {
                let resp = receiver.recv().expect("terminal response");
                let id = resp.request_id().expect("terminal responses carry ids");
                let sent = send_times
                    .lock()
                    .unwrap()
                    .remove(&id)
                    .expect("response to a sent request");
                latencies.push(sent.elapsed());
                answered += 1;
                if matches!(resp, Response::Overloaded { .. }) {
                    shed += 1;
                }
            }
            (latencies, answered, shed)
        }));
    }

    // open-loop sender: fixed arrival schedule, round-robin over the
    // connections, never waiting for responses
    for n in 0..TOTAL_REQUESTS {
        let target = started + ARRIVAL_INTERVAL * n as u32;
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sender = &mut senders[(n as usize) % CONNECTIONS];
        send_times.lock().unwrap().insert(n, Instant::now());
        sender.send(&check_request(n)).expect("open-loop send");
    }

    let mut latencies = Vec::new();
    let mut answered = 0u64;
    let mut shed = 0u64;
    for handle in handles {
        let (l, a, s) = handle.join().expect("receiver thread");
        latencies.extend(l);
        answered += a;
        shed += s;
    }
    let wall = started.elapsed();
    latencies.sort();

    let stats = server.stats();
    LoadReport {
        wall,
        latencies,
        answered,
        shed,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    }
}

fn bench_serve_load(c: &mut Criterion) {
    let config = ServeConfig {
        workers: 4,
        queue_capacity: 8,
        max_valuations: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("address");

    // a conventional timed group for the cheap service paths
    {
        let mut group = c.benchmark_group("serve_load");
        group.sample_size(20);
        let mut client = ServeClient::connect_tcp(addr).expect("connect");
        group.bench_function("ping_roundtrip", |b| {
            b.iter(|| client.ping().expect("ping"))
        });
        group.bench_function("stats_roundtrip", |b| {
            b.iter(|| client.stats().expect("stats"))
        });
        group.finish();
    }

    let report = run_open_loop(&server, addr);
    assert_eq!(report.answered, TOTAL_REQUESTS, "every request answered");

    let secs = report.wall.as_secs_f64().max(f64::EPSILON);
    let p50 = percentile(&report.latencies, 0.50);
    let p99 = percentile(&report.latencies, 0.99);
    let shed_rate = report.shed as f64 / report.answered as f64;
    let lookups = report.cache_hits + report.cache_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        report.cache_hits as f64 / lookups as f64
    };

    println!(
        "serve_load: {} requests in {:.3}s ({:.1} req/s), p50 {:?}, p99 {:?}, \
         shed rate {:.3}, cache hit rate {:.3}",
        report.answered,
        report.wall.as_secs_f64(),
        report.answered as f64 / secs,
        p50,
        p99,
        shed_rate,
        hit_rate
    );

    c.metric("serve_load/requests_per_sec", report.answered as f64 / secs);
    c.metric("serve_load/latency_p50_ms", p50.as_secs_f64() * 1e3);
    c.metric("serve_load/latency_p99_ms", p99.as_secs_f64() * 1e3);
    c.metric("serve_load/shed_rate", shed_rate);
    c.metric("serve_load/cache_hit_rate", hit_rate);

    server.shutdown();

    bench_serve_restart(c);
}

fn hit_rate_of(report: &LoadReport) -> f64 {
    let lookups = report.cache_hits + report.cache_misses;
    if lookups == 0 {
        0.0
    } else {
        report.cache_hits as f64 / lookups as f64
    }
}

/// The restart variant: same open-loop stream against a log-backed daemon,
/// a full restart in between, and the recovered cache doing the work on the
/// second pass.
fn bench_serve_restart(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("ccbench-serve-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let log_path = dir.join("verdicts.cclog");
    let config = || ServeConfig {
        workers: 4,
        queue_capacity: 8,
        max_valuations: 1,
        cache_log: Some(log_path.clone()),
        ..ServeConfig::default()
    };

    // warm pass: populate the cache (and therefore the log)
    let server = Server::bind_tcp("127.0.0.1:0", config()).expect("bind");
    let addr = server.local_addr().expect("address");
    let warm = run_open_loop(&server, addr);
    let warm_hit_rate = hit_rate_of(&warm);
    server.shutdown();

    // restart: recovery time is bind (log replay happens inside) up to the
    // first answered ping — the moment the daemon is serving again
    let recovery_started = Instant::now();
    let server = Server::bind_tcp("127.0.0.1:0", config()).expect("rebind");
    let addr = server.local_addr().expect("address");
    ServeClient::connect_tcp(addr)
        .expect("connect")
        .ping()
        .expect("post-restart ping");
    let recovery = recovery_started.elapsed();
    let recovered_verdicts = server.stats().log_recovered;

    let cold = run_open_loop(&server, addr);
    let post_restart_hit_rate = hit_rate_of(&cold);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "serve_restart: recovered {} verdicts in {:.1}ms; hit rate warm {:.3} vs post-restart {:.3}",
        recovered_verdicts,
        recovery.as_secs_f64() * 1e3,
        warm_hit_rate,
        post_restart_hit_rate
    );
    assert!(
        recovered_verdicts > 0,
        "the warm pass must have persisted verdicts for the restart to recover"
    );
    assert!(
        post_restart_hit_rate >= 0.8 * warm_hit_rate,
        "recovered cache must retain the warm hit rate: {post_restart_hit_rate:.3} < 0.8 * {warm_hit_rate:.3}"
    );

    c.metric("serve_load/recovery_ms", recovery.as_secs_f64() * 1e3);
    c.metric("serve_load/post_restart_hit_rate", post_restart_hit_rate);
    c.metric("serve_load/warm_hit_rate", warm_hit_rate);
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
