//! One connection that never reads its replies must not delay another. Each
//! connection thread writes only its own replies, and only after releasing
//! the engine lock, so a client whose replies back up stalls only its own
//! thread.

use dhmm_data::io::LoadedModel;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_serve::{
    read_frame, write_frame, Registry, Request, Response, ServeConfig, Server, TelemetrySink,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// `metrics` requests the stalled connection pipelines. Their replies run
/// to many times what loopback socket buffers hold.
const PIPELINED: usize = 50_000;
/// How long any one reply, or the whole unstalled session, may take.
const DEADLINE: Duration = Duration::from_secs(20);

fn model() -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(17);
    let (pi, a) = random_parameters(4, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
        .expect("valid parameters");
    let b = random_stochastic_matrix(4, 8, 1.0, &mut rng).expect("valid rows");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

/// A connection whose reads fail instead of hanging past the deadline.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(DEADLINE))
        .expect("read timeout");
    stream
}

fn call(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, &request.encode()).expect("write request");
    let payload = read_frame(stream)
        .expect("a reply within the deadline")
        .expect("the server keeps the connection open");
    Response::parse(&payload).expect("well-formed reply")
}

/// Create, pushes, flush and close on a fresh connection; every label the
/// session committed, in order.
fn labeled_session(addr: SocketAddr) -> Vec<usize> {
    let mut stream = connect(addr);
    let id = match call(&mut stream, &Request::Create) {
        Response::Created { id } => id,
        other => panic!("create answered {other:?}"),
    };
    let mut labels = Vec::new();
    for push in 0..12 {
        let tokens = (0..16)
            .map(|i| ((push * 5 + i * 3) % 8).to_string())
            .collect();
        match call(&mut stream, &Request::Push { id, tokens }) {
            Response::Committed { labels: l, .. } => labels.extend(l),
            other => panic!("push answered {other:?}"),
        }
    }
    match call(&mut stream, &Request::Flush { id }) {
        Response::Flushed { labels: l, .. } => labels.extend(l),
        other => panic!("flush answered {other:?}"),
    }
    match call(&mut stream, &Request::Close { id }) {
        Response::Closed => {}
        other => panic!("close answered {other:?}"),
    }
    labels
}

/// The `metrics` requests the engine has answered so far.
fn metrics_answered(stream: &mut TcpStream) -> u64 {
    match call(stream, &Request::Metrics) {
        Response::Metrics { text } => text
            .lines()
            .find_map(|l| l.strip_prefix("dhmm_serve_requests_total{verb=\"metrics\"} "))
            .and_then(|n| n.parse().ok())
            .expect("the metrics request counter"),
        other => panic!("metrics answered {other:?}"),
    }
}

#[test]
fn a_connection_that_never_reads_does_not_delay_another() {
    let config = ServeConfig::default()
        .with_lag(4)
        .with_telemetry(TelemetrySink::Registry(Registry::new()));
    let handle = Server::start(LoadedModel::Discrete(model()), config, "127.0.0.1:0")
        .expect("server starts");
    let addr = handle.local_addr();
    let unstalled = labeled_session(addr);

    // Connection A pipelines its requests in one write, from a thread of
    // its own since the write blocks once the server stops reading, and
    // never reads a reply.
    let stalled = TcpStream::connect(addr).expect("connect");
    let mut pipeline = Vec::new();
    for _ in 0..PIPELINED {
        write_frame(&mut pipeline, "metrics").expect("frame into memory");
    }
    let mut writer_end = stalled.try_clone().expect("clone");
    let writer = thread::spawn(move || {
        let _ = writer_end.write_all(&pipeline);
    });

    // A has stalled once the engine stops seeing its requests: between two
    // probes, only the first probe itself was answered.
    let mut probe = connect(addr);
    let started = Instant::now();
    let mut answered = metrics_answered(&mut probe);
    loop {
        thread::sleep(Duration::from_millis(100));
        let now = metrics_answered(&mut probe);
        if now == answered + 1 {
            break;
        }
        answered = now;
        assert!(started.elapsed() < DEADLINE, "connection A never stalled");
    }
    assert!(
        answered < PIPELINED as u64,
        "every pipelined request was answered: the replies never backed up"
    );

    let started = Instant::now();
    assert_eq!(labeled_session(addr), unstalled);
    assert!(started.elapsed() < DEADLINE);

    let _ = stalled.shutdown(Shutdown::Both);
    writer.join().expect("writer thread");
    handle.shutdown().expect("engine drains cleanly");
}
