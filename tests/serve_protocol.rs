//! Adversarial protocol tests against a live `ccs-serve` daemon:
//! malformed JSON, truncated and partial frames, hostile length
//! prefixes, seeded byte-level fuzzing, interleaved clients, and a
//! client killed mid-request. The daemon must answer garbage with typed
//! errors, never die, and leave a parseable journal.

use ccs_client::{Client, RetryPolicy};
use ccs_serve::{
    frame_bytes, FrameReader, JournalEvent, Request, Response, ServeConfig, Server, WireCellSpec,
};
use ccs_verify::{mutate_frame, ALL_FRAME_MUTATIONS};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

const LEN: usize = 1_500;

fn journal_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ccs-serve-test-{name}-{}.jsonl", std::process::id()));
    p
}

fn start_server(journal: Option<PathBuf>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 64,
        journal,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve until drain"));
    (addr, handle)
}

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

fn read_response(reader: &mut FrameReader, stream: &mut TcpStream) -> Response {
    let payload = reader.read_frame(stream).expect("a reply frame");
    Response::decode(&payload).expect("a decodable reply")
}

fn sample_cell(seed: u64) -> WireCellSpec {
    WireCellSpec::new(
        ccs_trace::Benchmark::Gzip,
        seed,
        LEN,
        ccs_isa::ClusterLayout::C2x4w,
        ccs_core::PolicyKind::Focused,
    )
}

/// The daemon is alive iff a fresh connection gets a status reply.
fn assert_alive(addr: SocketAddr) {
    let mut client = Client::connect(&addr.to_string()).expect("daemon accepts connections");
    let status = client.status().expect("daemon answers status");
    assert!(!status.draining);
}

#[test]
fn malformed_json_gets_typed_error_and_connection_survives() {
    let (addr, handle) = start_server(None);
    let mut stream = raw_connect(addr);
    let mut reader = FrameReader::new();

    // Valid frame, garbage payload: typed error, connection stays.
    stream
        .write_all(&frame_bytes("this is not json"))
        .expect("write");
    match read_response(&mut reader, &mut stream) {
        Response::Error { message } => assert!(message.contains("malformed")),
        other => panic!("expected Error, got {other:?}"),
    }

    // Unknown type and bad version: same story.
    for payload in [
        "{\"v\":1,\"type\":\"warp\"}",
        "{\"v\":99,\"type\":\"status\"}",
        "{}",
    ] {
        stream.write_all(&frame_bytes(payload)).expect("write");
        assert!(matches!(
            read_response(&mut reader, &mut stream),
            Response::Error { .. }
        ));
    }

    // The *same connection* still serves real requests afterwards.
    stream
        .write_all(&frame_bytes(&Request::Status.encode()))
        .expect("write");
    match read_response(&mut reader, &mut stream) {
        Response::Status(s) => assert_eq!(s.protocol_errors, 4),
        other => panic!("expected Status, got {other:?}"),
    }

    drop(stream);
    Client::connect(&addr.to_string())
        .unwrap()
        .drain()
        .expect("drain");
    handle.join().expect("clean exit");
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let (addr, handle) = start_server(None);
    let mut stream = raw_connect(addr);
    let mut reader = FrameReader::new();

    // Magic + a 4 GiB length declaration. The daemon must answer with a
    // typed error (it cannot resync, so it then hangs up) — and must
    // never try to allocate the declared bytes.
    let mut bytes = b"CCS1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&bytes).expect("write");
    match read_response(&mut reader, &mut stream) {
        Response::Error { message } => {
            assert!(message.contains("exceeds limit"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    assert_alive(addr);
    Client::connect(&addr.to_string())
        .unwrap()
        .drain()
        .expect("drain");
    handle.join().expect("clean exit");
}

#[test]
fn partial_frames_across_many_writes_still_parse() {
    let (addr, handle) = start_server(None);
    let mut stream = raw_connect(addr);
    let mut reader = FrameReader::new();

    // Dribble a status request one byte at a time with pauses long
    // enough to hit the server's 100 ms read timeout repeatedly: the
    // partial frame must survive every timeout.
    let bytes = frame_bytes(&Request::Status.encode());
    for (i, b) in bytes.iter().enumerate() {
        stream.write_all(&[*b]).expect("write byte");
        if i % 7 == 0 {
            std::thread::sleep(Duration::from_millis(120));
        }
    }
    assert!(matches!(
        read_response(&mut reader, &mut stream),
        Response::Status(_)
    ));

    Client::connect(&addr.to_string())
        .unwrap()
        .drain()
        .expect("drain");
    handle.join().expect("clean exit");
}

#[test]
fn seeded_frame_fuzzing_never_kills_the_daemon() {
    let (addr, handle) = start_server(None);

    // Mutate both a control frame and a submission frame, every
    // mutation, several seeds. Any reply (or silent hangup) is
    // acceptable; a dead daemon is not.
    let victims = [
        frame_bytes(&Request::Status.encode()),
        frame_bytes(
            &Request::SubmitGrid {
                id: 1,
                cells: vec![sample_cell(1)],
            }
            .encode(),
        ),
    ];
    for victim in &victims {
        for mutation in ALL_FRAME_MUTATIONS {
            for seed in 0..5 {
                let mutated = mutate_frame(victim, mutation, seed);
                let mut stream = raw_connect(addr);
                stream.write_all(&mutated).expect("write");
                let _ = stream.shutdown(std::net::Shutdown::Write);
                // Drain whatever the daemon says until it hangs up (or
                // 20 s read timeout — far beyond any sane reply).
                let mut reader = FrameReader::new();
                while reader.read_frame(&mut stream).is_ok() {}
            }
        }
    }

    assert_alive(addr);
    Client::connect(&addr.to_string())
        .unwrap()
        .drain()
        .expect("drain");
    handle.join().expect("daemon survived the fuzz corpus");
}

#[test]
fn interleaved_clients_each_get_their_own_results() {
    let (addr, handle) = start_server(None);

    // Four clients submit different overlapping grids concurrently over
    // their own connections; each must get exactly its own cells back.
    let workers: Vec<_> = (0..4)
        .map(|k| {
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr.to_string()).expect("connect");
                let cells: Vec<WireCellSpec> =
                    (0..3).map(|i| sample_cell(1 + ((k + i) % 4))).collect();
                let policy = RetryPolicy {
                    max_attempts: 20,
                    ..RetryPolicy::default()
                };
                let outcome = client
                    .submit_grid_with_policy(&cells, &policy, |_| {})
                    .expect("grid");
                assert_eq!(outcome.exit_code(), 0, "client {k}");
                assert!(outcome.is_complete(), "client {k}");
                // Deterministic evaluation: the same seed yields the
                // same digest for every client.
                outcome
                    .records
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for records in &results {
        for record in records {
            assert_eq!(record.status, "ok");
            // Every client that asked for this key saw the same bits.
            for other in &results {
                for o in other {
                    if o.key == record.key {
                        assert_eq!(o.digest, record.digest);
                        assert_eq!(o.cpi_bits, record.cpi_bits);
                    }
                }
            }
        }
    }

    Client::connect(&addr.to_string())
        .unwrap()
        .drain()
        .expect("drain");
    handle.join().expect("clean exit");
}

#[test]
fn killed_client_leaves_daemon_alive_and_journal_parseable() {
    let path = journal_path("killed-client");
    let (addr, handle) = start_server(Some(path.clone()));

    // Submit a grid and slam the connection shut without reading a
    // single reply — a client killed mid-request.
    {
        let mut stream = raw_connect(addr);
        let req = Request::SubmitGrid {
            id: 99,
            cells: (0..4).map(|k| sample_cell(50 + k)).collect(),
        };
        stream.write_all(&frame_bytes(&req.encode())).expect("write");
        // Drop without reading: the handler's writes will fail while
        // workers keep evaluating the admitted cells.
    }

    // The daemon survives and still serves other clients.
    assert_alive(addr);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let policy = RetryPolicy {
        max_attempts: 20,
        ..RetryPolicy::default()
    };
    let outcome = client
        .submit_grid_with_policy(&[sample_cell(50)], &policy, |_| {})
        .expect("grid after the kill");
    assert_eq!(outcome.exit_code(), 0);

    client.drain().expect("drain");
    handle.join().expect("clean exit");

    // The journal replays the whole story: started, the doomed
    // admission, every cell evaluated, drain, drained — with no
    // unparseable lines.
    let (events, skipped) = ccs_serve::load_journal(&path).expect("journal readable");
    std::fs::remove_file(&path).ok();
    assert_eq!(skipped, 0, "every journal line parses");
    assert!(matches!(events.first(), Some(JournalEvent::Started { .. })));
    assert!(matches!(events.last(), Some(JournalEvent::Drained { .. })));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, JournalEvent::Admitted { id: 99, cells: 4, .. })),
        "the killed client's admission was journaled"
    );
    let done = events
        .iter()
        .filter(|e| matches!(e, JournalEvent::CellDone { .. }))
        .count();
    assert!(
        done >= 4,
        "admitted cells were evaluated despite the dead client (saw {done})"
    );
}

#[test]
fn slow_loris_partial_frame_is_timed_out_with_a_typed_error() {
    // A tight frame deadline so the test is quick; real configs default
    // to 10 s.
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        frame_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve until drain"));

    // Send half a frame and then just... hold the socket.
    let frame = frame_bytes(&Request::Status.encode());
    let mut stream = raw_connect(addr);
    stream.write_all(&frame[..frame.len() / 2]).expect("write");
    let mut reader = FrameReader::new();
    match read_response(&mut reader, &mut stream) {
        Response::Error { message } => {
            assert!(message.contains("timeout"), "typed timeout, got {message:?}")
        }
        other => panic!("expected a timeout error, got {other:?}"),
    }
    // After the error the daemon hangs up on the stalled connection…
    assert!(
        reader.read_frame(&mut stream).is_err(),
        "stalled connection is closed after the timeout reply"
    );
    // …but idle connections (no partial frame buffered) are NOT
    // reaped, and the daemon itself keeps serving.
    let idle = raw_connect(addr);
    std::thread::sleep(Duration::from_millis(500));
    assert_alive(addr);
    drop(idle);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.drain().expect("drain");
    handle.join().expect("clean exit");
}

#[test]
fn default_daemon_admits_a_grid_larger_than_256_cells() {
    // No explicit capacity: an idle daemon with the default
    // configuration must take a 360-cell grid in one all-or-nothing
    // admission instead of refusing it as busy.
    let server = Server::bind(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve until drain"));

    let cells: Vec<WireCellSpec> = (0..360u64)
        .map(|k| {
            WireCellSpec::new(
                ccs_trace::Benchmark::ALL[(k % 12) as usize],
                1 + k / 12,
                60,
                ccs_isa::ClusterLayout::C2x4w,
                ccs_core::PolicyKind::Focused,
            )
            .with_epochs(1)
        })
        .collect();
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let outcome = client
        .submit_grid(&cells, |_| {})
        .expect("an idle default daemon admits the grid");
    assert!(outcome.is_complete());
    assert_eq!(outcome.ok, cells.len(), "every record ok");
    assert_eq!(outcome.exit_code(), 0);

    client.drain().expect("drain");
    handle.join().expect("clean exit");
}

#[test]
fn busy_retries_exhaust_into_a_typed_error() {

    // A fake daemon that answers every frame with `busy`, forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let refuser = std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let mut reader = FrameReader::new();
        while reader.read_frame(&mut stream).is_ok() {
            let reply = Response::Busy { retry_after_ms: 2 };
            if ccs_serve::write_frame(&mut stream, &reply.encode()).is_err() {
                break;
            }
        }
    });

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
        deadline: Some(Duration::from_secs(5)),
        seed: 7,
    };
    let started = std::time::Instant::now();
    let err = client
        .submit_grid_with_policy(&[sample_cell(1)], &policy, |_| {})
        .expect_err("a permanently busy daemon exhausts retries");
    match err {
        ccs_core::CcsError::RetriesExhausted {
            attempts,
            elapsed_ms,
            last,
        } => {
            assert_eq!(attempts, 4, "every allowed attempt was spent");
            assert!(last.contains("busy"), "the final refusal is carried: {last:?}");
            assert!(elapsed_ms <= 5_000, "the deadline bounds the episode");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // Three sleeps of ≥1 ms each happened between the four attempts.
    assert!(started.elapsed() >= Duration::from_millis(3));
    drop(client);
    refuser.join().expect("fake daemon exits");
}

#[test]
fn reply_deadline_turns_a_wedged_daemon_into_a_typed_timeout() {
    use ccs_verify::{ChaosProxy, ServeFault, ServeFaultPlan};

    let (addr, handle) = start_server(None);
    // First connection through the proxy wedges; later ones pass.
    let plan = ServeFaultPlan::scripted(vec![ServeFault::HangAccept]);
    let proxy = ChaosProxy::start(&addr.to_string(), plan).expect("proxy");

    let client = Client::connect(&proxy.addr()).expect("connect via proxy");
    let mut client = client.with_reply_timeout(Duration::from_millis(250));
    let err = client
        .submit_cell(&sample_cell(1))
        .expect_err("a wedged daemon must not hang the client");
    assert!(err.is_timeout(), "typed timeout, got {err:?}");

    // The daemon behind the proxy never saw that connection and is fine.
    assert_alive(addr);
    let mut direct = Client::connect(&addr.to_string()).expect("connect direct");
    direct.drain().expect("drain");
    drop(proxy);
    handle.join().expect("clean exit");
}
