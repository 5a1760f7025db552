//! A long-lived server must not keep a file descriptor per connection it
//! has ever accepted: once a client hangs up and its reader thread ends,
//! every descriptor the server held for that connection is closed.
//!
//! This test lives in its own file so that no other test in the same
//! process opens or closes descriptors while it counts them.

#![cfg(target_os = "linux")]

use dhmm_data::io::LoadedModel;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const CYCLES: usize = 200;
const SLACK: usize = 10;

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

fn model() -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(3);
    let (pi, a) = random_parameters(3, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
        .expect("valid parameters");
    let b = random_stochastic_matrix(3, 6, 1.0, &mut rng).expect("valid rows");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

#[test]
fn closed_connections_release_their_descriptors() {
    let handle = Server::start(
        LoadedModel::Discrete(model()),
        ServeConfig::default().with_lag(2),
        "127.0.0.1:0",
    )
    .expect("server starts");
    let addr = handle.local_addr();
    let start = open_descriptors();

    for i in 0..CYCLES {
        let mut client = Client::connect(addr).expect("connect");
        match client.call(&Request::Stats) {
            Ok(Response::Stats { .. }) => {}
            other => panic!("cycle {i}: stats answered {other:?}"),
        }
    }

    // Reader threads notice the hang-up asynchronously: poll until the
    // count settles back near where it started.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut now = open_descriptors();
    while now > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_descriptors();
    }
    assert!(
        now <= start + SLACK,
        "{CYCLES} closed connections left {} descriptors open ({start} before, {now} after)",
        now.saturating_sub(start)
    );

    handle.shutdown().expect("clean shutdown");
}
