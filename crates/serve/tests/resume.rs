//! Resumable jobs, end to end and in process: a deadline-tripped
//! `park_on_interrupt` request yields a resume token; resuming continues
//! the job to the same verdicts a fresh unbounded run produces; bad tokens
//! fail typed.

mod common;

use ccprotocols::family::{FamilyParams, FaultModel};
use ccserve::server::ServeConfig;
use ccserve::wire::{
    CellReport, CheckRequest, Priority, Request, Response, ResumeRejectCause, ResumeRequest,
    ResumeToken, Source,
};
use ccserve::ServeClient;
use common::start;
use std::net::SocketAddr;

/// A family point big enough that a 1 ms deadline reliably trips before the
/// grid finishes, yet small enough to complete unbounded in debug builds.
fn parkable_params() -> FamilyParams {
    FamilyParams {
        phases: 2,
        width: 2,
        fanout: 1,
        guard_density: 0,
        shared_vars: 1,
        coin_vars: 2,
        faults: FaultModel::Byzantine,
        resilience: 2,
    }
}

fn parkable_check(id: u64, deadline_ms: u64, park: bool) -> Request {
    Request::Check(CheckRequest {
        id,
        priority: Priority::Normal,
        deadline_ms,
        source: Source::Family {
            params: parkable_params(),
            seed: 11,
        },
        valuations: vec![],
        obligations: vec![],
        progress: false,
        park_on_interrupt: park,
    })
}

fn single_worker() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 8,
        max_valuations: 2,
        ..ServeConfig::default()
    }
}

/// Sends `req`, expecting a Verdict; returns its cells and resume token.
fn verdict_of(client: &mut ServeClient, req: &Request) -> (Vec<CellReport>, Option<ResumeToken>) {
    match client.request(req).expect("response") {
        Response::Verdict { cells, resume, .. } => (cells, resume),
        other => panic!("expected Verdict, got {other:?}"),
    }
}

/// Parks a job on a fresh connection, returning its degraded cells and the
/// promised token.
fn park_one(addr: SocketAddr, id: u64) -> (Vec<CellReport>, ResumeToken) {
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let (cells, resume) = verdict_of(&mut client, &parkable_check(id, 1, true));
    let token = resume.expect("a 1ms deadline with park_on_interrupt must park");
    assert!(token.expires_in_ms > 0, "token must carry its TTL");
    let resumable = cells
        .iter()
        .flat_map(|c| &c.verdicts)
        .any(|v| v.code == b'?' && v.detail.ends_with("; resumable"));
    assert!(
        resumable,
        "degraded verdicts must advertise resumability: {cells:?}"
    );
    (cells, token)
}

fn resume_req(id: u64, token: u64) -> Request {
    Request::Resume(ResumeRequest {
        id,
        token,
        priority: Priority::Normal,
        deadline_ms: 0,
        progress: false,
        park_on_interrupt: false,
    })
}

#[test]
fn parked_job_resumes_to_the_same_verdicts_as_a_fresh_run() {
    // the oracle: a fresh unbounded run of the same request
    let (oracle_server, oracle_addr) = start(single_worker());
    let mut oracle_client = ServeClient::connect_tcp(oracle_addr).expect("connect");
    let (oracle_cells, oracle_resume) =
        verdict_of(&mut oracle_client, &parkable_check(1, 0, false));
    assert!(oracle_resume.is_none(), "an unbounded run never parks");
    assert!(
        oracle_cells
            .iter()
            .flat_map(|c| &c.verdicts)
            .all(|v| v.code != b'?'),
        "the oracle run must be definite: {oracle_cells:?}"
    );
    oracle_server.shutdown();

    // park on a separate daemon (separate cache), then resume unbounded
    let (server, addr) = start(single_worker());
    let (_, token) = park_one(addr, 2);
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let (resumed_cells, resumed_token) = verdict_of(&mut client, &resume_req(3, token.token));
    assert!(
        resumed_token.is_none(),
        "an unbounded resume runs to completion"
    );

    assert_eq!(resumed_cells.len(), oracle_cells.len());
    for (resumed, oracle) in resumed_cells.iter().zip(&oracle_cells) {
        assert_eq!(resumed.valuation, oracle.valuation);
        assert_eq!(resumed.verdicts.len(), oracle.verdicts.len());
        for (r, o) in resumed.verdicts.iter().zip(&oracle.verdicts) {
            assert_eq!(r.name, o.name);
            assert_eq!(
                r.code, o.code,
                "resumed verdict for {} diverged from the fresh run",
                r.name
            );
            assert_eq!(
                (r.states, r.transitions),
                (o.states, o.transitions),
                "resume must be bit-identical, not merely agree, on {}",
                r.name
            );
        }
    }

    // the token is one-shot: a second resume fails typed
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    match client.request(&resume_req(4, token.token)).expect("resp") {
        Response::ResumeRejected { id: 4, cause } => {
            assert_eq!(cause, ResumeRejectCause::Unknown, "consumed token");
        }
        other => panic!("expected ResumeRejected, got {other:?}"),
    }

    let stats = server.stats();
    assert_eq!(stats.parked, 1, "{stats:?}");
    assert_eq!(stats.resumed, 1, "{stats:?}");
    assert_eq!(stats.resume_rejected, 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn unknown_tokens_reject_typed() {
    let (server, addr) = start(single_worker());
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    match client.request(&resume_req(9, 0xbad_c0de)).expect("resp") {
        Response::ResumeRejected { id: 9, cause } => {
            assert_eq!(cause, ResumeRejectCause::Unknown);
        }
        other => panic!("expected ResumeRejected, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn lru_pressure_evicts_the_oldest_token_with_a_typed_cause() {
    let config = ServeConfig {
        checkpoint_slots: 1,
        ..single_worker()
    };
    let (server, addr) = start(config);
    let (_, first) = park_one(addr, 10);
    let (_, second) = park_one(addr, 11);
    assert_ne!(first.token, second.token);

    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    match client.request(&resume_req(12, first.token)).expect("resp") {
        Response::ResumeRejected { id: 12, cause } => {
            assert_eq!(cause, ResumeRejectCause::Evicted, "displaced by LRU");
        }
        other => panic!("expected ResumeRejected, got {other:?}"),
    }
    // the younger token still resumes
    let (cells, _) = verdict_of(&mut client, &resume_req(13, second.token));
    assert!(!cells.is_empty());

    let stats = server.stats();
    assert_eq!(stats.checkpoints_evicted, 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn expired_tokens_reject_typed() {
    let config = ServeConfig {
        checkpoint_ttl_ms: 50,
        ..single_worker()
    };
    let (server, addr) = start(config);
    let (_, token) = park_one(addr, 20);
    assert!(token.expires_in_ms <= 50);
    std::thread::sleep(std::time::Duration::from_millis(120));

    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    match client.request(&resume_req(21, token.token)).expect("resp") {
        Response::ResumeRejected { id: 21, cause } => {
            assert_eq!(cause, ResumeRejectCause::Expired);
        }
        other => panic!("expected ResumeRejected, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn zero_checkpoint_slots_disable_parking_without_breaking_degradation() {
    let config = ServeConfig {
        checkpoint_slots: 0,
        ..single_worker()
    };
    let (server, addr) = start(config);
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let (cells, resume) = verdict_of(&mut client, &parkable_check(30, 1, true));
    assert!(resume.is_none(), "parking disabled: no token");
    let degraded = cells
        .iter()
        .flat_map(|c| &c.verdicts)
        .filter(|v| v.code == b'?')
        .count();
    assert!(degraded > 0, "the deadline still degrades: {cells:?}");
    assert!(
        cells
            .iter()
            .flat_map(|c| &c.verdicts)
            .all(|v| !v.detail.contains("resumable")),
        "no token, no resumable promise: {cells:?}"
    );
    server.shutdown();
}
