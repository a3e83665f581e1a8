//! Wire-level and lifecycle robustness for the daemon: frame corruption,
//! oversize rejection, request validation, the one-worker floor, overload
//! shedding, deadline degradation, disconnect cancellation, cache reuse,
//! and a direct cross-check of daemon verdicts against an in-process
//! `CheckJob`.

mod common;

use ccchecker::{CheckJob, CheckerOptions, Spec};
use ccserve::server::ServeConfig;
use ccserve::wire::{CheckRequest, Priority, Request, Response, Source, WireError, MAGIC};
use ccserve::ServeClient;
use common::{family_check, single_slot_config, slow_check, start, tiny_params, wait_for_stats};
use std::time::Duration;

const SOAK_WAIT: Duration = Duration::from_secs(120);

#[test]
fn ping_and_stats_roundtrip() {
    let (server, addr) = start(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client.ping().expect("ping");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.active_jobs, 0);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_ping() {
    use ccserve::server::Server;
    let path = std::env::temp_dir().join(format!("ccserve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::bind_unix(&path, ServeConfig::default()).expect("bind unix");
    let mut client = ServeClient::connect_unix(&path).expect("connect unix");
    client.ping().expect("ping over unix socket");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_payload_is_rejected_but_connection_survives() {
    let (server, addr) = start(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    // a sound frame around an unknown request tag: the stream is still in
    // sync, so the daemon rejects and keeps serving
    client.send_raw_payload(&[0xFF, 1, 2, 3]).expect("send");
    match client.recv().expect("rejection") {
        Response::Rejected { id: 0, .. } => {}
        other => panic!("expected Rejected, got {other:?}"),
    }
    client
        .ping()
        .expect("connection must survive a payload rejection");
    // a truncated payload inside a sound frame likewise
    client.send_raw_payload(&[1]).expect("send");
    assert!(matches!(
        client.recv().expect("rejection"),
        Response::Rejected { id: 0, .. }
    ));
    client.ping().expect("still alive after truncated payload");
    assert!(server.stats().rejected >= 2);
    server.shutdown();
}

#[test]
fn bad_magic_closes_the_connection() {
    let (server, addr) = start(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client
        .send_raw_bytes(&[0xDE, 0xAD, 0xBE, 0xEF, 4, 0, 0, 0, 1, 2, 3, 4])
        .expect("send garbage header");
    match client.recv().expect("rejection before hangup") {
        Response::Rejected { id: 0, reason } => {
            assert!(reason.contains("magic"), "reason: {reason}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // the server hangs up: the next read sees EOF (or a reset)
    assert!(client.recv().is_err());
    // fresh connections keep working
    let mut fresh = ServeClient::connect_tcp(addr).expect("reconnect");
    fresh.ping().expect("server survives bad-magic clients");
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_and_connection_closed() {
    let config = ServeConfig {
        max_frame_bytes: 64,
        ..ServeConfig::default()
    };
    let (server, addr) = start(config);
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client
        .send_raw_payload(&[0u8; 128])
        .expect("send oversized");
    match client.recv().expect("rejection before hangup") {
        Response::Rejected { id: 0, reason } => {
            assert!(reason.contains("oversized"), "reason: {reason}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(client.recv().is_err());
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_no_residue() {
    let (server, addr) = start(ServeConfig::default());
    {
        let mut client = ServeClient::connect_tcp(addr).expect("connect");
        // declare 100 payload bytes but deliver only 10, then vanish
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[7u8; 10]);
        client.send_raw_bytes(&bytes).expect("send truncated frame");
        client.disconnect();
    }
    // the reader must notice the EOF and unwind without admitting anything
    let stats = wait_for_stats(addr, Duration::from_secs(10), |s| {
        s.admitted == 0 && s.active_jobs == 0
    });
    assert_eq!(stats.queue_depth, 0);
    server.shutdown();
}

#[test]
fn semantic_rejections_are_typed() {
    let (server, addr) = start(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(addr).expect("connect");

    let mut check = |req: Request| match client.request(&req).expect("response") {
        Response::Rejected { reason, .. } => reason,
        other => panic!("expected Rejected, got {other:?}"),
    };

    let reason = check(Request::Check(CheckRequest {
        id: 1,
        priority: Priority::Normal,
        deadline_ms: 0,
        source: Source::Protocol("no-such-protocol".into()),
        valuations: vec![],
        obligations: vec![],
        progress: false,
        park_on_interrupt: false,
    }));
    assert!(reason.contains("unknown protocol"), "reason: {reason}");

    let reason = check(Request::Check(CheckRequest {
        id: 2,
        priority: Priority::Normal,
        deadline_ms: 0,
        source: Source::Family {
            params: tiny_params(),
            seed: 1,
        },
        valuations: vec![vec![1, 2]],
        obligations: vec![],
        progress: false,
        park_on_interrupt: false,
    }));
    assert!(reason.contains("arity"), "reason: {reason}");

    let reason = check(Request::Check(CheckRequest {
        id: 3,
        priority: Priority::Normal,
        deadline_ms: 0,
        source: Source::Family {
            params: tiny_params(),
            seed: 1,
        },
        valuations: vec![vec![0; arity_of_tiny_family()]],
        obligations: vec![],
        progress: false,
        park_on_interrupt: false,
    }));
    assert!(reason.contains("inadmissible"), "reason: {reason}");

    let reason = check(Request::Check(CheckRequest {
        id: 4,
        priority: Priority::Normal,
        deadline_ms: 0,
        source: Source::Family {
            params: tiny_params(),
            seed: 1,
        },
        valuations: vec![],
        obligations: vec!["NoSuchObligation".into()],
        progress: false,
        park_on_interrupt: false,
    }));
    assert!(
        reason.contains("no matching obligations"),
        "reason: {reason}"
    );

    assert_eq!(server.stats().rejected, 4);
    server.shutdown();
}

#[test]
fn zero_workers_still_start_one_worker() {
    // the one clamp the configuration keeps: every other zero means zero,
    // but a daemon without a worker slot would queue checks forever
    let (server, addr) = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client
        .send(&Request::Check(CheckRequest {
            id: 3,
            priority: Priority::Normal,
            deadline_ms: 0,
            source: Source::Protocol("KS16".into()),
            valuations: vec![vec![4, 1, 1, 1]],
            obligations: vec![],
            progress: false,
            park_on_interrupt: false,
        }))
        .expect("send");
    wait_for_stats(addr, SOAK_WAIT, |s| s.completed == 1);
    let cells = match client.recv().expect("verdict") {
        Response::Verdict { id: 3, cells, .. } => cells,
        other => panic!("expected Verdict, got {other:?}"),
    };
    assert_eq!(cells.len(), 1);
    assert!(!cells[0].verdicts.is_empty());
    // KS16 satisfies its whole catalogue (Table II)
    assert!(
        cells[0].verdicts.iter().all(|v| v.code == b'+'),
        "{cells:?}"
    );
    server.shutdown();
}

fn arity_of_tiny_family() -> usize {
    tiny_params().instantiate(1).single_round.env().num_params()
}

#[test]
fn verdicts_match_an_in_process_check_job() {
    let params = tiny_params();
    let seed = 5;
    let family = params.instantiate(seed);
    let specs = Spec::family_catalogue(&family.single_round, &family.obligations);
    let sys = cccounter::CounterSystem::new(family.single_round.clone(), family.valuation.clone())
        .expect("counter system");
    let job = CheckJob::new(&sys, &specs, CheckerOptions::default());
    let (expected, _) = job
        .run()
        .completed()
        .expect("oracle job must run to completion");

    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let resp = client
        .request(&Request::Check(CheckRequest {
            id: 42,
            priority: Priority::High,
            deadline_ms: 0,
            source: Source::Family { params, seed },
            valuations: vec![family.valuation.values().to_vec()],
            obligations: vec![],
            progress: false,
            park_on_interrupt: false,
        }))
        .expect("verdict");
    let cells = match resp {
        Response::Verdict { id: 42, cells, .. } => cells,
        other => panic!("expected Verdict, got {other:?}"),
    };
    assert_eq!(cells.len(), 1);
    let cell = &cells[0];
    assert_eq!(cell.valuation, family.valuation.values().to_vec());
    assert_eq!(cell.verdicts.len(), expected.len());
    for ((verdict, spec), outcome) in cell.verdicts.iter().zip(&specs).zip(&expected) {
        assert_eq!(verdict.name, spec.name());
        assert_eq!(
            verdict.code,
            cccore::verdict_code(outcome.status),
            "daemon and in-process verdicts disagree on {}",
            spec.name()
        );
    }
    server.shutdown();
}

#[test]
fn repeated_requests_hit_the_result_cache() {
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let req = family_check(1, tiny_params(), 9, 0);
    let first = match client.request(&req).expect("first verdict") {
        Response::Verdict { cells, .. } => cells,
        other => panic!("expected Verdict, got {other:?}"),
    };
    let definite: usize = first
        .iter()
        .flat_map(|c| &c.verdicts)
        .filter(|v| v.code != b'?')
        .count();
    let second = match client.request(&req).expect("second verdict") {
        Response::Verdict { cells, .. } => cells,
        other => panic!("expected Verdict, got {other:?}"),
    };
    let cached: usize = second
        .iter()
        .flat_map(|c| &c.verdicts)
        .filter(|v| v.cached)
        .count();
    // only definite verdicts are cacheable; every one of them must be
    // served from the cache the second time around
    assert_eq!(cached, definite, "definite verdicts must come from cache");
    if definite > 0 {
        assert!(server.stats().cache_hits as usize >= definite);
    }
    server.shutdown();
}

#[test]
fn tight_deadline_degrades_to_unknown_verdicts() {
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let resp = client
        .request(&slow_check(7, 30))
        .expect("degraded verdict");
    let cells = match resp {
        Response::Verdict { id: 7, cells, .. } => cells,
        other => panic!("expected Verdict, got {other:?}"),
    };
    assert!(!cells.is_empty());
    let mut degraded = 0;
    for verdict in cells.iter().flat_map(|c| &c.verdicts) {
        if verdict.code == b'?' && verdict.detail.starts_with("interrupted") {
            degraded += 1;
        }
    }
    assert!(
        degraded > 0,
        "a 30ms deadline on a second-long workload must trip at least one obligation: {cells:?}"
    );
    server.shutdown();
}

#[test]
fn overload_sheds_typed_and_completes_all_admitted() {
    // one worker, a one-deep queue: pipelining six slow requests must shed
    // at least one with a typed Overloaded, and every request still gets
    // exactly one terminal response
    let (server, addr) = start(single_slot_config(1));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let total = 6u64;
    for id in 1..=total {
        client.send(&slow_check(id, 400)).expect("pipeline send");
    }
    let mut seen = std::collections::HashMap::new();
    let mut overloaded = 0;
    for _ in 0..total {
        let resp = client.recv().expect("terminal response");
        let id = resp.request_id().expect("terminal responses carry an id");
        assert!(resp.is_terminal(), "unexpected non-terminal {resp:?}");
        if let Response::Overloaded {
            queue_depth,
            capacity,
            ..
        } = &resp
        {
            assert_eq!(*capacity, 1);
            assert!(*queue_depth <= *capacity);
            overloaded += 1;
        }
        assert!(
            seen.insert(id, resp).is_none(),
            "request {id} answered twice"
        );
    }
    assert_eq!(seen.len() as u64, total, "every request answered once");
    assert!(overloaded >= 1, "a full queue must shed explicitly");

    let stats = wait_for_stats(addr, SOAK_WAIT, |s| {
        s.active_jobs == 0 && s.queue_depth == 0
    });
    assert_eq!(stats.admitted + stats.shed, total);
    assert_eq!(
        stats.completed, stats.admitted,
        "every admitted request must complete: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn disconnect_mid_job_cancels_and_releases_the_slot() {
    let (server, addr) = start(single_slot_config(4));
    {
        let mut client = ServeClient::connect_tcp(addr).expect("connect");
        // no deadline: only the disconnect can stop this job
        client.send(&slow_check(11, 0)).expect("send");
        // let the worker pick it up, then vanish
        wait_for_stats(addr, Duration::from_secs(30), |s| s.admitted == 1);
        std::thread::sleep(Duration::from_millis(200));
        client.disconnect();
    }
    // the job must observe the cancellation and release its slot without a
    // response; nothing may stay queued or running
    let stats = wait_for_stats(addr, SOAK_WAIT, |s| {
        s.orphaned >= 1 && s.active_jobs == 0 && s.queue_depth == 0
    });
    assert_eq!(stats.completed, 0, "no response for an orphaned request");
    // the freed slot serves new clients promptly
    let mut fresh = ServeClient::connect_tcp(addr).expect("reconnect");
    match fresh
        .request(&family_check(12, tiny_params(), 1, 0))
        .expect("post-disconnect verdict")
    {
        Response::Verdict { id: 12, .. } => {}
        other => panic!("expected Verdict, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn client_side_wire_errors_are_typed() {
    // decoding garbage client-side produces typed errors, not panics
    assert!(matches!(
        ccserve::wire::decode_response(&[0xEE]),
        Err(WireError::Malformed(_))
    ));
    assert!(matches!(
        ccserve::wire::decode_request(&[]),
        Err(WireError::Malformed(_))
    ));
}
