//! End-to-end tests for `mcs serve` over a real TCP socket.
//!
//! These exercise the full stack — client codec, server framing,
//! scheduler, engine, cache — and pin the service's core contract:
//! a plan served from cache is `to_bits`-identical to the cold run
//! and costs zero additional cross-section lookups.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcs::core::engine::{self, ModelSpec, PolicySpec, RunPlan, Serial};
use mcs::serve::protocol::MAX_FRAME_BYTES;
use mcs::serve::{Client, Priority, Request, Response, ServeConfig, ServedResult, Server, Source};

fn tiny_plan(salt: u64) -> RunPlan {
    RunPlan {
        particles: 64,
        inactive: 1,
        active: 2,
        entropy_mesh: (2, 2, 2),
        seed: Some(0xe2e_000 + salt),
        ..RunPlan::default()
    }
}

fn test_server(cfg: ServeConfig) -> (Server, Client) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let client = Client::connect(server.local_addr()).expect("connect");
    (server, client)
}

/// A raw socket for speaking the wire format by hand (the `Client`
/// never emits a malformed frame). Reads time out, so a server that
/// stops answering fails the test instead of hanging it.
fn raw_connection(server: &Server) -> (BufWriter<TcpStream>, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let writer = BufWriter::new(stream.try_clone().expect("clone"));
    (writer, BufReader::new(stream))
}

/// The next response line off a raw socket.
fn read_response(reader: &mut impl BufRead) -> Response {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read a response line");
    assert!(n > 0, "server closed the connection");
    Response::parse(line.trim_end()).expect("decode response")
}

#[test]
fn cache_hit_is_bit_identical_and_relookup_free() {
    let (server, mut client) = test_server(ServeConfig::default());
    let plan = tiny_plan(1);

    let (src_cold, cold) = client.run(&plan, Priority::Normal).expect("cold run");
    assert_eq!(src_cold, Source::Run);
    let lookups_after_cold = client.stats().expect("stats").xs_lookups;
    assert!(lookups_after_cold > 0, "a cold run performs xs lookups");

    let (src_hit, hit) = client.run(&plan, Priority::Normal).expect("cache hit");
    assert_eq!(src_hit, Source::Cache);
    // The acceptance contract: bit-identical payload (ServedResult's
    // Eq is over float *bit patterns*), and the engine never ran —
    // the global lookup counter did not move.
    assert_eq!(cold, hit);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.xs_lookups, lookups_after_cold);
    assert_eq!(stats.cold_runs, 1);
    assert_eq!(stats.cache_hits, 1);

    // The served result matches a direct in-process serial run of the
    // same plan, bit for bit: the service adds no numerical noise.
    let report = engine::run_with_problem(&plan.build_problem(), &plan, &mut Serial::new())
        .into_eigenvalue();
    let local = ServedResult::from_report(mcs::serve::plan_hash(&plan), &report);
    assert_eq!(*cold, local);

    server.shutdown();
}

#[test]
fn concurrent_identical_submissions_run_the_engine_once() {
    const N: u64 = 8;
    let plan = tiny_plan(2);

    // Reference cost: one cold run of this exact plan on a fresh
    // server. Determinism makes the lookup count a stable fingerprint.
    let (ref_server, mut ref_client) = test_server(ServeConfig::default());
    ref_client
        .run(&plan, Priority::Normal)
        .expect("reference run");
    let one_run_lookups = ref_client.stats().expect("stats").xs_lookups;
    ref_server.shutdown();

    // Now N identical submissions pipelined while the workers are
    // paused, so every one of them is in flight simultaneously.
    let (server, mut client) = test_server(ServeConfig::default());
    server.scheduler().pause();
    let ids: Vec<u64> = (0..N)
        .map(|_| {
            client
                .submit(&plan, Priority::Normal, false)
                .expect("submit")
        })
        .collect();
    // Stats round-trip as a barrier: it orders this client behind its
    // own pipelined submit frames, so every submission is in flight
    // (not still in the reader's parse queue) when the workers resume.
    client.stats().expect("barrier");
    server.scheduler().resume();

    let mut results = Vec::new();
    for id in ids {
        let (_, result) = client.wait_result(id).expect("result");
        results.push(result);
    }
    for r in &results[1..] {
        assert_eq!(results[0], *r, "all subscribers receive identical bits");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.cold_runs, 1,
        "engine executed once for {N} submissions"
    );
    assert_eq!(stats.coalesced, N - 1);
    assert_eq!(
        stats.xs_lookups, one_run_lookups,
        "xs lookup delta equals exactly one run"
    );
    server.shutdown();
}

#[test]
fn mixed_policy_submissions_share_one_cache_entry() {
    let (server, mut client) = test_server(ServeConfig::default());
    let base = tiny_plan(3);
    let plans = [
        RunPlan {
            policy: PolicySpec::Serial,
            ..base.clone()
        },
        RunPlan {
            policy: PolicySpec::Threaded { threads: 4 },
            ..base.clone()
        },
        RunPlan {
            policy: PolicySpec::Distributed { ranks: 3 },
            ..base
        },
    ];

    let mut results = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let (source, result) = client.run(plan, Priority::Normal).expect("run");
        // The policy is execution advice, not physics: the first
        // submission runs cold, the rest hit the same cache line.
        if i == 0 {
            assert_eq!(source, Source::Run);
        } else {
            assert_eq!(source, Source::Cache);
        }
        results.push(result);
    }
    for r in &results[1..] {
        assert_eq!(results[0], *r);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cold_runs, 1);
    assert_eq!(
        stats.cache_entries, 1,
        "three policies, one canonical entry"
    );
    server.shutdown();
}

#[test]
fn catalog_models_occupy_distinct_cache_lines() {
    // Two catalog models over the same particle budget and seed must
    // never share a cache entry: the plan hash digests the model spec,
    // so "test" and "shield" each run cold once and then hit only
    // their own line.
    let (server, mut client) = test_server(ServeConfig::default());
    let plans = [
        RunPlan {
            model: ModelSpec::test(),
            ..tiny_plan(4)
        },
        RunPlan {
            model: ModelSpec::named("shield"),
            ..tiny_plan(4)
        },
    ];
    assert_ne!(
        mcs::serve::plan_hash(&plans[0]),
        mcs::serve::plan_hash(&plans[1]),
        "model spec must be part of the plan identity"
    );

    let mut cold = Vec::new();
    for plan in &plans {
        let (source, result) = client.run(plan, Priority::Normal).expect("cold run");
        assert_eq!(source, Source::Run);
        cold.push(result);
    }
    assert_ne!(
        cold[0], cold[1],
        "different models must produce different physics"
    );

    // Replays hit the cache — and each model gets *its own* bits back.
    for (plan, expected) in plans.iter().zip(&cold) {
        let (source, result) = client.run(plan, Priority::Normal).expect("cache hit");
        assert_eq!(source, Source::Cache);
        assert_eq!(result, *expected, "cache returned the wrong model's result");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cold_runs, 2, "one engine run per model");
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_entries, 2, "no cross-model sharing");
    server.shutdown();
}

#[test]
fn buffered_rejections_do_not_starve_an_earlier_wait() {
    // Regression test: with the workers paused, overflow submissions
    // are rejected synchronously, so the socket holds Rejected frames
    // for *later* ids ahead of the Result for id 0. `wait_result(0)`
    // must buffer those terminal events once and keep reading fresh
    // frames — an earlier client looped over its own pending buffer
    // and spun forever on the first non-matching Rejected.
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let (server, mut client) = test_server(cfg);
    server.scheduler().pause();
    let ids: Vec<u64> = (0..6)
        .map(|salt| {
            client
                .submit(&tiny_plan(10 + salt), Priority::Normal, false)
                .expect("submit")
        })
        .collect();
    // Barrier before resuming, so the admitted/rejected split is exact
    // (see concurrent_identical_submissions_run_the_engine_once). The
    // rejections it reads past land in the client's pending buffer —
    // exactly the state the original bug spun on.
    client.stats().expect("barrier");
    server.scheduler().resume();

    // The client now holds buffered Rejected events for ids 2..6;
    // waiting on id 0 must skip over them and read fresh frames.
    let (source, _) = client.wait_result(ids[0]).expect("first admitted result");
    assert_eq!(source, Source::Run);

    let mut admitted = 0u64;
    let mut rejected = 0u64;
    for &id in &ids[1..] {
        match client.wait_result(id) {
            Ok(_) => admitted += 1,
            Err(mcs::serve::ClientError::Rejected(_)) => rejected += 1,
            Err(e) => panic!("unexpected client error: {e}"),
        }
    }
    assert_eq!(admitted, 1, "queue cap admits exactly two distinct plans");
    assert_eq!(rejected, 4, "the four overflow submissions are refused");
    server.shutdown();
}

#[test]
fn garbage_frame_gets_typed_error_and_connection_survives() {
    let (server, _client) = test_server(ServeConfig::default());

    // Raw socket: the Client won't emit malformed frames, so speak the
    // wire format by hand.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    writeln!(writer, "{{\"op\":\"launch-missiles\"}}").expect("write");
    writeln!(writer, "this is not even json").expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    for _ in 0..2 {
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(
            matches!(Response::parse(line.trim_end()), Ok(Response::Error { .. })),
            "bad frame answered with a typed error, got: {line}"
        );
    }

    // The same connection still serves well-formed requests.
    writeln!(writer, "{}", Request::Stats.to_line()).expect("write");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(matches!(
        Response::parse(line.trim_end()),
        Ok(Response::Stats(_))
    ));
    server.shutdown();
}

#[test]
fn cache_hits_do_not_wait_on_the_delayed_ack_timer() {
    // A hit is two frames (Accepted, Result). With Nagle on, the second
    // waits for the client's delayed ACK and every hit reads ~44 ms on
    // loopback; the work itself is microseconds.
    let (server, mut client) = test_server(ServeConfig::default());
    let plan = tiny_plan(20);
    let (source, _) = client.run(&plan, Priority::Normal).expect("cold run");
    assert_eq!(source, Source::Run);

    let mut hit_ms: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            let (source, _) = client.run(&plan, Priority::Normal).expect("hit");
            assert_eq!(source, Source::Cache);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    hit_ms.sort_by(f64::total_cmp);
    let median = hit_ms[hit_ms.len() / 2];
    assert!(
        median < 10.0,
        "median cache hit {median:.3} ms (sorted: {hit_ms:.3?})"
    );
    server.shutdown();
}

#[test]
fn a_pipelined_burst_is_answered_in_submission_order() {
    const N: usize = 64;
    let (server, mut client) = test_server(ServeConfig::default());
    let plan = tiny_plan(21);
    let (_, cold) = client.run(&plan, Priority::Normal).expect("cold run");

    // N hits and a stats request in one write on a fresh connection.
    let (mut writer, mut reader) = raw_connection(&server);
    let submit = Request::Submit {
        plan: Box::new(plan),
        priority: Priority::Normal,
        progress: false,
    }
    .to_line();
    for _ in 0..N {
        writeln!(writer, "{submit}").expect("write");
    }
    writeln!(writer, "{}", Request::Stats.to_line()).expect("write");
    writer.flush().expect("flush");

    let mut accepted = [false; N];
    let mut next_result = 0;
    for _ in 0..2 * N {
        match read_response(&mut reader) {
            Response::Accepted { id, source, .. } => {
                assert_eq!(source, Source::Cache);
                assert!(!accepted[id as usize], "id {id} accepted twice");
                accepted[id as usize] = true;
            }
            Response::Result { id, source, result } => {
                assert_eq!(id, next_result, "results arrive in id order");
                assert!(accepted[id as usize], "Accepted precedes Result for {id}");
                assert_eq!(source, Source::Cache);
                assert_eq!(result, cold, "hit {id} is bit-identical to the cold run");
                next_result += 1;
            }
            other => panic!("unexpected {other:?} inside the burst"),
        }
    }
    match read_response(&mut reader) {
        Response::Stats(s) => {
            assert_eq!(s.cache_hits, N as u64);
            assert_eq!(s.cold_runs, 1);
        }
        other => panic!("stats must come last, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_non_utf8_frame_gets_a_typed_error_and_the_connection_survives() {
    let (server, _client) = test_server(ServeConfig::default());
    let (mut writer, mut reader) = raw_connection(&server);

    writer.write_all(b"\xff\xfe\n").expect("write");
    writeln!(writer, "{}", Request::Stats.to_line()).expect("write");
    writeln!(writer, "garbage").expect("write");
    writer.flush().expect("flush");
    assert!(matches!(read_response(&mut reader), Response::Error { .. }));
    assert!(matches!(read_response(&mut reader), Response::Stats(_)));
    assert!(matches!(read_response(&mut reader), Response::Error { .. }));

    // Still open: the same connection answers the next request.
    writeln!(writer, "{}", Request::Stats.to_line()).expect("write");
    writer.flush().expect("flush");
    assert!(matches!(read_response(&mut reader), Response::Stats(_)));
    server.shutdown();
}

#[test]
fn an_over_long_frame_gets_one_error_then_the_connection_closes() {
    let (server, _client) = test_server(ServeConfig::default());
    let (mut writer, mut reader) = raw_connection(&server);

    // The server stops reading at the cap and hangs up, so this write
    // may fail part-way with a reset; only the answer matters.
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
        let _ = writer.flush();
    });
    match read_response(&mut reader) {
        Response::Error { detail } => assert!(
            detail.contains(&MAX_FRAME_BYTES.to_string()),
            "the error names the cap: {detail}"
        ),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Then nothing but the close. Unread flood bytes make the server's
    // close a reset rather than a FIN; either ends the stream.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after the error frame"),
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}"),
    }
    flood.join().expect("flood writer");

    let mut fresh = Client::connect(server.local_addr()).expect("connect");
    fresh.stats().expect("a fresh connection is served");
    server.shutdown();
}

#[test]
fn the_client_reads_a_result_frame_larger_than_the_request_cap() {
    // A result frame grows ~38 B per batch and admission bounds no batch
    // count, so a valid result can pass MAX_FRAME_BYTES; only request
    // frames are capped. Running ~28k batches takes a minute, so a stub
    // server answers the submission with such a frame instead.
    const BATCHES: usize = 30_000;
    let plan = tiny_plan(22);
    let report = engine::run_with_problem(&plan.build_problem(), &plan, &mut Serial::new())
        .into_eigenvalue();
    let mut big = ServedResult::from_report(mcs::serve::plan_hash(&plan), &report);
    big.batches = BATCHES as u64;
    big.k_history_bits = (0..BATCHES as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    big.entropy_bits = big.k_history_bits.iter().map(|b| !b).collect();
    let frame = Response::Result {
        id: 0,
        source: Source::Run,
        result: Arc::new(big.clone()),
    }
    .to_line();
    assert!(frame.len() > MAX_FRAME_BYTES, "{} B", frame.len());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("stub address");
    let stub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("read the submission");
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "{frame}").expect("write the result");
        writer.flush().expect("flush");
    });

    let mut client = Client::connect(addr).expect("connect");
    let (source, result) = client.run(&plan, Priority::Normal).expect("large result");
    assert_eq!(source, Source::Run);
    assert_eq!(*result, big);
    stub.join().expect("stub server");
}
