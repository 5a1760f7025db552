//! End-to-end smoke of the `dhmm-serve` binary: make a checkpoint, start
//! the server, drive the protocol over loopback (directly and via the
//! `client` subcommand), then SIGTERM and assert a clean drain.
//!
//! Committed-label counts are asserted as bounds, not exact values: fixed-lag
//! decoding guarantees *at least* `T - lag` labels after `T` tokens, but the
//! online Viterbi commits more whenever survivor paths coalesce early, which
//! is data- and model-dependent.

use dhmm_serve::{Client, Request, Response};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

mod common;
use common::TempFile;

const BIN: &str = env!("CARGO_BIN_EXE_dhmm-serve");

fn tmp(name: &str) -> TempFile {
    TempFile::new("dhmm-smoke", name)
}

fn make_model(path: &Path) {
    let status = Command::new(BIN)
        .args([
            "make-model",
            "--out",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--vocab",
            "10",
        ])
        .status()
        .expect("spawn make-model");
    assert!(status.success(), "make-model failed");
}

/// The running server child; killed on drop so a failing assertion can't
/// leak a process (which would also hold the test harness's pipes open).
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `dhmm-serve serve` on an ephemeral port and reads the bound
/// address off its first stdout line.
fn start_server(model: &Path) -> ServerProc {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--lag",
            "3",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));
    // Hand the reader back so the shutdown line is capturable later.
    child.stdout = Some(reader.into_inner());
    ServerProc { child, addr }
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM failed");
}

#[test]
fn serve_binary_drains_in_flight_sessions_on_sigterm() {
    let model = tmp("sigterm.model");
    make_model(&model);
    let mut server = start_server(&model);

    let mut client = Client::connect(server.addr).unwrap();
    // One session flushed by us, one left in flight for the drain.
    let finished = match client.call(&Request::Create).unwrap() {
        Response::Created { id } => id,
        other => panic!("create failed: {other:?}"),
    };
    let in_flight = match client.call(&Request::Create).unwrap() {
        Response::Created { id } => id,
        other => panic!("create failed: {other:?}"),
    };
    let mut committed = 0;
    for id in [finished, in_flight] {
        let tokens: Vec<String> = (0..8).map(|i| (i % 10).to_string()).collect();
        match client.call(&Request::Push { id, tokens }).unwrap() {
            Response::Committed { start, labels } => {
                assert_eq!(start, 0);
                // Fixed lag 3: at least 8 - 3 labels, never all 8.
                assert!((5..8).contains(&labels.len()), "got {}", labels.len());
                committed = labels.len();
            }
            other => panic!("push failed: {other:?}"),
        }
    }
    match client.call(&Request::Flush { id: finished }).unwrap() {
        Response::Flushed {
            start,
            labels,
            tokens,
            ..
        } => {
            assert_eq!(start, committed);
            assert_eq!(start + labels.len(), 8);
            assert_eq!(tokens, 8);
        }
        other => panic!("flush failed: {other:?}"),
    }

    sigterm(&server.child);
    let status = server.child.wait().expect("wait for serve");
    assert!(status.success(), "server did not exit cleanly: {status:?}");
    let mut out = String::new();
    server
        .child
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut out)
        .unwrap();
    assert!(
        out.contains("shut down cleanly, flushed 1 sessions"),
        "drain line missing or wrong: {out:?}"
    );
}

/// Races a push against SIGTERM: the engine must apply any request that was
/// accepted before the stop latch flipped, so the drain's token count is
/// either 8 (the racing push lost — connection refused/closed) or 16 (it
/// won — queued behind the latch and applied by the shutdown drain). The
/// deterministic pin of the drain-the-queue behavior is the engine_loop
/// unit test in `src/server.rs`; this exercises the same path end-to-end.
#[test]
fn serve_binary_never_drops_a_push_racing_sigterm() {
    let model = tmp("race.model");
    make_model(&model);
    let mut server = start_server(&model);

    let mut client = Client::connect(server.addr).unwrap();
    let id = match client.call(&Request::Create).unwrap() {
        Response::Created { id } => id,
        other => panic!("create failed: {other:?}"),
    };
    let tokens: Vec<String> = (0..8).map(|i| (i % 10).to_string()).collect();
    match client
        .call(&Request::Push {
            id,
            tokens: tokens.clone(),
        })
        .unwrap()
    {
        Response::Committed { .. } => {}
        other => panic!("push failed: {other:?}"),
    }

    sigterm(&server.child);
    // Fire the racing push immediately after the signal; whether it lands
    // is timing-dependent and both outcomes are legal, but an accepted
    // push must never be dropped.
    let raced = client.call(&Request::Push { id, tokens }).is_ok();

    let status = server.child.wait().expect("wait for serve");
    assert!(status.success(), "server did not exit cleanly: {status:?}");
    let mut out = String::new();
    server
        .child
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut out)
        .unwrap();
    let labeled: usize = out
        .split(" sessions (")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("drain line missing or wrong: {out:?}"));
    assert!(
        out.contains("shut down cleanly, flushed 1 sessions"),
        "drain line missing or wrong: {out:?}"
    );
    assert!(
        labeled == 8 || labeled == 16,
        "drain labeled {labeled} tokens (raced push ok={raced}): {out:?}"
    );
    if raced {
        // The push was accepted (the engine replied), so its tokens must
        // appear in the drain even though shutdown was already underway.
        assert_eq!(labeled, 16, "accepted racing push was dropped: {out:?}");
    }
}

#[test]
fn client_subcommand_replays_a_script() {
    let model = tmp("script.model");
    make_model(&model);
    let mut server = start_server(&model);

    let script = tmp("script.txt");
    std::fs::write(
        &*script,
        "# smoke script: one full session\n\
         create\n\
         push $sid 1 2 3 4 5 6\n\
         flush $sid\n\
         close $sid\n\
         stats\n",
    )
    .unwrap();

    let output = Command::new(BIN)
        .args([
            "client",
            "--addr",
            &server.addr.to_string(),
            "--script",
            script.to_str().unwrap(),
        ])
        .output()
        .expect("spawn client");
    assert!(output.status.success(), "client failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("< ok sid 0.0"), "{stdout}");
    assert!(stdout.contains("< ok committed 0 "), "{stdout}");
    assert!(stdout.contains("< ok flushed "), "{stdout}");
    assert!(stdout.contains(" tokens 6"), "{stdout}");
    assert!(stdout.contains("< ok closed"), "{stdout}");
    assert!(stdout.contains("active 0"), "{stdout}");

    sigterm(&server.child);
    let status = server.child.wait().expect("wait");
    assert!(status.success(), "server did not exit cleanly: {status:?}");
}

#[test]
fn serve_binary_rejects_an_unknown_flag() {
    let model = tmp("unknown-flag.model");
    make_model(&model);
    // A flag the server does not know must stop it before it listens, not
    // be ignored: poll for the exit and kill a server that started anyway.
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--sparse-beam",
            "0.01",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve started despite an unknown flag");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(!status.success(), "serve accepted an unknown flag");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .unwrap();
    assert!(
        err.contains("unknown flag --sparse-beam"),
        "stderr does not name the flag: {err:?}"
    );
}
