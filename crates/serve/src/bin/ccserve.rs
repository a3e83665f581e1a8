//! The `ccserve` binary: bind, serve, report.
//!
//! ```text
//! ccserve [--tcp ADDR] [--unix PATH] [--workers N] [--queue N]
//!         [--cache N] [--max-frame BYTES] [--stats-interval SECS]
//!         [--cache-log PATH] [--fsync-policy POLICY]
//!         [--checkpoint-slots N] [--port-file PATH]
//! ```
//!
//! Defaults to TCP on `127.0.0.1:7177`.  Each flag overwrites one field of
//! `ServeConfig::default()`, which holds the built-in defaults (see the
//! crate docs).  `--cache-log` makes verdicts and parked
//! checkpoints durable across restarts; `--fsync-policy` is one of
//! `always`, `never`, `every=N`, `interval=MS`.  `--port-file` writes the
//! bound address to a file once listening, so harnesses can use an
//! ephemeral port (`--tcp 127.0.0.1:0`).  The crash campaign arms fault
//! sites via `CC_FAULT_CRASH` (see `ccchecker::fault`).

use ccserve::server::{ServeConfig, Server};
use ccserve::store::FsyncPolicy;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ccserve [--tcp ADDR] [--unix PATH] [--workers N] [--queue N] \
         [--cache N] [--max-frame BYTES] [--stats-interval SECS] \
         [--cache-log PATH] [--fsync-policy always|never|every=N|interval=MS] \
         [--checkpoint-slots N] [--port-file PATH]"
    );
    std::process::exit(2);
}

fn main() {
    // arm before anything else so even startup paths (log open, replay)
    // are under the campaign's thumb
    ccchecker::fault::arm_from_env();

    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut stats_interval = 30u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--tcp" => tcp = Some(value("--tcp")),
            "--unix" => unix = Some(value("--unix")),
            "--workers" => config.workers = parse(&value("--workers")),
            "--queue" => config.queue_capacity = parse(&value("--queue")),
            "--cache" => config.cache_capacity = parse(&value("--cache")),
            "--max-frame" => config.max_frame_bytes = parse(&value("--max-frame")),
            "--stats-interval" => stats_interval = parse(&value("--stats-interval")),
            "--cache-log" => {
                config.cache_log = Some(std::path::PathBuf::from(value("--cache-log")));
            }
            "--fsync-policy" => {
                let raw = value("--fsync-policy");
                config.fsync_policy = FsyncPolicy::parse(&raw).unwrap_or_else(|| {
                    eprintln!("--fsync-policy: unrecognised policy {raw:?}");
                    usage()
                });
            }
            "--checkpoint-slots" => config.checkpoint_slots = parse(&value("--checkpoint-slots")),
            "--port-file" => port_file = Some(value("--port-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }

    let server = if let Some(path) = unix {
        #[cfg(unix)]
        {
            let path = std::path::PathBuf::from(path);
            let _ = std::fs::remove_file(&path);
            match Server::bind_unix(&path, config) {
                Ok(s) => {
                    eprintln!("ccserve: listening on unix socket {}", path.display());
                    s
                }
                Err(e) => {
                    eprintln!("ccserve: cannot bind {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            eprintln!("ccserve: unix sockets are not supported on this platform");
            std::process::exit(1);
        }
    } else {
        let addr = tcp.unwrap_or_else(|| "127.0.0.1:7177".to_string());
        match Server::bind_tcp(&addr, config) {
            Ok(s) => {
                eprintln!(
                    "ccserve: listening on {}",
                    s.local_addr().map(|a| a.to_string()).unwrap_or(addr)
                );
                s
            }
            Err(e) => {
                eprintln!("ccserve: cannot bind {addr}: {e}");
                std::process::exit(1);
            }
        }
    };

    if let Some(path) = port_file {
        // the harness polls for this file: write the bound address (the
        // real port when `--tcp 127.0.0.1:0` was asked) atomically so a
        // reader never sees a half-written line
        let addr = server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let tmp = format!("{path}.tmp");
        let write = std::fs::write(&tmp, addr).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            eprintln!("ccserve: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }

    loop {
        std::thread::sleep(Duration::from_secs(stats_interval.max(1)));
        let s = server.stats();
        eprintln!(
            "ccserve: admitted={} shed={} completed={} orphaned={} rejected={} errors={} \
             cache_hits={} cache_misses={} active={} queued={}",
            s.admitted,
            s.shed,
            s.completed,
            s.orphaned,
            s.rejected,
            s.errors,
            s.cache_hits,
            s.cache_misses,
            s.active_jobs,
            s.queue_depth
        );
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {s:?}");
        usage()
    })
}
