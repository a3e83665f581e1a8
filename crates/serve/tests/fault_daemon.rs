//! Seeded fault injection at the daemon's own sites (admission, response
//! serialization, socket write) and inside its check jobs (the retry
//! path).  Lives in its own integration-test binary so the process-global
//! fault statics cannot leak into other suites; the tests here serialize on
//! a local mutex for the same reason.

mod common;

use ccchecker::{fault, CheckJob, CheckerOptions, Spec};
use cccounter::CounterSystem;
use ccserve::wire::{CheckRequest, Priority, Request, Response, Source, SpecVerdict};
use ccserve::ServeClient;
use common::{family_check, single_slot_config, start, tiny_params, wait_for_stats};
use std::sync::Mutex;
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn admission_fault_degrades_to_typed_error() {
    let _guard = serialized();
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client.ping().expect("warm up");

    fault::arm_panic(fault::SITE_ADMISSION, 0, 1);
    let resp = client
        .request(&family_check(1, tiny_params(), 1, 0))
        .expect("error response");
    let hits = fault::disarm();
    assert!(hits >= 1, "the admission injector must have fired");
    match resp {
        Response::Error { id: 1, detail } => {
            assert!(detail.contains("admission"), "detail: {detail}")
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // the daemon survives: the very next request runs to a verdict
    match client
        .request(&family_check(2, tiny_params(), 1, 0))
        .expect("verdict after fault")
    {
        Response::Verdict { id: 2, .. } => {}
        other => panic!("expected Verdict, got {other:?}"),
    }
    // the completed counter is bumped after the response frame is written,
    // so poll rather than asserting immediately
    let stats = wait_for_stats(addr, Duration::from_secs(10), |s| s.completed == 1);
    assert_eq!(stats.errors, 1);
    server.shutdown();
}

#[test]
fn response_encode_fault_falls_back_to_minimal_error() {
    let _guard = serialized();
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client.ping().expect("warm up");

    // arm one shot before sending (only the daemon fires this site): the
    // verdict's encode panics, the daemon falls back to a minimal typed
    // Error carrying the same request id
    fault::arm_panic(fault::SITE_RESPONSE_ENCODE, 0, 1);
    client
        .send(&family_check(3, tiny_params(), 1, 0))
        .expect("send");
    let resp = client.recv().expect("fallback response");
    let hits = fault::disarm();
    assert!(hits >= 1, "the encode injector must have fired");
    match resp {
        Response::Error { id: 3, detail } => {
            assert!(detail.contains("serialization"), "detail: {detail}")
        }
        other => panic!("expected fallback Error, got {other:?}"),
    }

    // the connection stays in sync and serves the next request normally
    match client
        .request(&family_check(4, tiny_params(), 1, 0))
        .expect("verdict after fault")
    {
        Response::Verdict { id: 4, .. } => {}
        other => panic!("expected Verdict, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn socket_write_fault_kills_the_connection_but_not_the_daemon() {
    let _guard = serialized();
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client.ping().expect("warm up");

    // the write of the verdict frame panics: the daemon declares the
    // connection dead and shuts the socket, so the client sees EOF
    fault::arm_panic(fault::SITE_SOCKET_WRITE, 0, 1);
    client
        .send(&family_check(5, tiny_params(), 1, 0))
        .expect("send");
    let read = client.recv();
    let hits = fault::disarm();
    assert!(hits >= 1, "the socket-write injector must have fired");
    assert!(
        read.is_err(),
        "the poisoned connection must close: {read:?}"
    );

    // no slot leak: the worker and queue drain, the response is accounted
    // as orphaned, and a fresh connection gets served
    let stats = wait_for_stats(addr, Duration::from_secs(60), |s| {
        s.active_jobs == 0 && s.queue_depth == 0 && s.orphaned >= 1
    });
    assert_eq!(stats.completed, 0);
    let mut fresh = ServeClient::connect_tcp(addr).expect("reconnect");
    match fresh
        .request(&family_check(6, tiny_params(), 1, 0))
        .expect("verdict on fresh connection")
    {
        Response::Verdict { id: 6, .. } => {}
        other => panic!("expected Verdict, got {other:?}"),
    }
    server.shutdown();
}

/// A check of the tiny family at its own valuation, and the verdicts an
/// in-process `CheckJob` gives for it.
fn tiny_family_check(id: u64) -> (Request, Vec<SpecVerdict>) {
    let (params, seed) = (tiny_params(), 5);
    let family = params.instantiate(seed);
    let specs = Spec::family_catalogue(&family.single_round, &family.obligations);
    let sys = CounterSystem::new(family.single_round.clone(), family.valuation.clone())
        .expect("counter system");
    let (outcomes, _) = CheckJob::new(&sys, &specs, CheckerOptions::default())
        .run()
        .completed()
        .expect("the oracle job runs to completion");
    let expected = specs
        .iter()
        .zip(&outcomes)
        .map(|(spec, o)| SpecVerdict {
            name: spec.name().to_string(),
            code: cccore::verdict_code(o.status),
            states: o.states_explored as u64,
            transitions: o.transitions_explored as u64,
            cached: false,
            detail: o.detail.clone(),
        })
        .collect();
    let req = Request::Check(CheckRequest {
        id,
        priority: Priority::Normal,
        deadline_ms: 0,
        source: Source::Family { params, seed },
        valuations: vec![family.valuation.values().to_vec()],
        obligations: vec![],
        progress: false,
        park_on_interrupt: false,
    });
    (req, expected)
}

#[test]
fn one_job_panic_is_retried_on_a_fresh_job() {
    let _guard = serialized();
    let (req, expected) = tiny_family_check(7);
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client.ping().expect("warm up");

    // the first attempt panics at its first exploration wave; the retry
    // runs a fresh job to the verdict an undisturbed job gives
    fault::arm_panic(fault::SITE_EXPAND, 0, 1);
    let resp = client.request(&req).expect("verdict");
    let hits = fault::disarm();
    assert!(hits >= 2, "the retry must explore after the panic: {hits}");
    match resp {
        Response::Verdict {
            id: 7,
            cells,
            resume: None,
        } => {
            assert_eq!(cells.len(), 1);
            assert_eq!(cells[0].verdicts, expected);
        }
        other => panic!("expected Verdict, got {other:?}"),
    }
    let stats = wait_for_stats(addr, Duration::from_secs(10), |s| s.completed == 1);
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

#[test]
fn a_job_panicking_on_both_attempts_is_a_typed_error() {
    let _guard = serialized();
    let (req, expected) = tiny_family_check(8);
    let (server, addr) = start(single_slot_config(8));
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    client.ping().expect("warm up");

    // two shots: the first attempt and its retry both panic
    fault::arm_panic(fault::SITE_EXPAND, 0, 2);
    let resp = client.request(&req).expect("error response");
    let hits = fault::disarm();
    assert!(hits >= 2, "both attempts must fire: {hits}");
    match resp {
        Response::Error { id: 8, detail } => assert!(
            detail.contains("every attempt") && detail.contains("injected fault"),
            "detail: {detail}"
        ),
        other => panic!("expected Error, got {other:?}"),
    }

    // the daemon survives and serves the same check on its next request
    let Request::Check(mut next) = req else {
        unreachable!("a check request")
    };
    next.id = 9;
    match client
        .request(&Request::Check(next))
        .expect("verdict after the failed job")
    {
        Response::Verdict { id: 9, cells, .. } => assert_eq!(cells[0].verdicts, expected),
        other => panic!("expected Verdict, got {other:?}"),
    }
    let stats = wait_for_stats(addr, Duration::from_secs(10), |s| s.completed == 1);
    assert_eq!(stats.errors, 1);
    server.shutdown();
}
