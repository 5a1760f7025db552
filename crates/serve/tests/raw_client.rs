//! A client that frames with `dhmm_serve::write_frame` over a plain
//! `TcpStream`, without `TCP_NODELAY`, gets prompt replies. A frame written
//! as two sends (length, then payload) would leave the payload behind
//! Nagle's algorithm until the server's delayed ACK, about 40 ms per round
//! trip on Linux loopback.

use dhmm_data::io::LoadedModel;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_serve::{read_frame, write_frame, Request, Response, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 30;
const BUDGET: Duration = Duration::from_millis(300);

fn model() -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(23);
    let (pi, a) = random_parameters(3, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
        .expect("valid parameters");
    let b = random_stochastic_matrix(3, 4, 1.0, &mut rng).expect("valid rows");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

#[test]
fn a_client_without_nodelay_gets_prompt_round_trips() {
    let handle = Server::start(
        LoadedModel::Discrete(model()),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server starts");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let started = Instant::now();
    for _ in 0..ROUND_TRIPS {
        write_frame(&mut stream, &Request::Stats.encode()).expect("write request");
        let payload = read_frame(&mut stream)
            .expect("a reply")
            .expect("the server keeps the connection open");
        assert!(matches!(
            Response::parse(&payload),
            Ok(Response::Stats { .. })
        ));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < BUDGET,
        "{ROUND_TRIPS} stats round trips took {elapsed:?} without TCP_NODELAY"
    );
    drop(stream);
    handle.shutdown().expect("engine drains cleanly");
}
