//! Replay harness: drives a serving tier with a timed, seeded disturbance
//! stream while subscriber clients hold witness subscriptions, then checks
//! the delivery ledger balances exactly:
//! `updates_delivered + updates_shed == updates_owed`.
//!
//! The stream is a [`ReplayPlan`] — a pure function of (dataset, seed,
//! shape) — so two runs with the same arguments fire byte-identical
//! disturbances, and each subscriber reports an order-sensitive digest of
//! the frames it received ([`rcw_bench::replay::sequence_digest`]).
//!
//! Usage:
//!   cargo run --release -p rcw-bench --bin rcw_replay -- \
//!     [--dataset citeseer|bahouse|ppi|reddit] [--scale tiny|small|full] \
//!     [--seed N] [--events N] [--flips N] [--pace-ms N] [--subs N] \
//!     [--chaos] [--quick]
//!
//! `--chaos` arms the fault-injection plan (worker panics, dropped and
//! truncated writes, forced repair/regeneration failures); the ledger must
//! balance either way. `--quick` is the CI smoke shape: tiny dataset, short
//! stream, no pacing. Exits non-zero if the ledger does not balance or a
//! received frame is malformed.

use rcw_bench::replay::{rebase_epochs, sequence_digest, ReplayPlan};
use rcw_core::{RcwConfig, WitnessEngine};
use rcw_datasets::{bahouse, citeseer, ppi, reddit, Dataset, Scale};
use rcw_server::client::{Client, ClientError};
use rcw_server::faults::FaultPlan;
use rcw_server::{RcwServer, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire + engine fault mix used under `--chaos` (same shape as the
/// subscription-storm test, paced for a longer run).
const CHAOS_SPEC: &str =
    "worker_panic=1@2,conn_drop=1@3,write_drop=1@2,write_truncate=1@2,repair_fail=1@3,regen_fail=1@2";

struct Args {
    dataset: String,
    scale: Scale,
    seed: u64,
    events: usize,
    flips: usize,
    pace: Duration,
    subs: usize,
    chaos: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        dataset: "citeseer".to_string(),
        scale: Scale::Small,
        seed: 7,
        events: 16,
        flips: 2,
        pace: Duration::from_millis(25),
        subs: 3,
        chaos: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} expects a value"))
        };
        match flag.as_str() {
            "--dataset" => args.dataset = value("--dataset"),
            "--scale" => {
                args.scale = match value("--scale").as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => panic!("unknown scale {other}"),
                }
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed is a number"),
            "--events" => args.events = value("--events").parse().expect("--events is a number"),
            "--flips" => args.flips = value("--flips").parse().expect("--flips is a number"),
            "--pace-ms" => {
                args.pace = Duration::from_millis(
                    value("--pace-ms").parse().expect("--pace-ms is a number"),
                )
            }
            "--subs" => args.subs = value("--subs").parse().expect("--subs is a number"),
            "--chaos" => args.chaos = true,
            "--quick" => {
                args.scale = Scale::Tiny;
                args.events = 6;
                args.pace = Duration::ZERO;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn build_dataset(name: &str, scale: Scale, seed: u64) -> Dataset {
    match name {
        "citeseer" => citeseer::build(scale, seed),
        "bahouse" => bahouse::build(scale, seed),
        "ppi" => ppi::build(scale, seed),
        "reddit" => reddit::build(scale, seed),
        other => panic!("unknown dataset {other}"),
    }
}

fn replay_cfg() -> RcwConfig {
    RcwConfig {
        k: 1,
        local_budget: 1,
        candidate_hops: 2,
        max_expand_rounds: 2,
        sampled_disturbances: 4,
        pri_rounds: 4,
        ppr_iters: 20,
        ..RcwConfig::default()
    }
}

fn main() {
    let args = parse_args();
    let ds = build_dataset(&args.dataset, args.scale, args.seed);
    let appnp = ds.train_appnp(8, args.seed);
    let plan = ReplayPlan::from_graph(&ds.graph, args.seed, args.events, args.flips, args.pace);
    println!(
        "{}: |V|={}, |E|={}; stream: {} events x {} flips, digest {:016x}{}",
        ds.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        plan.events.len(),
        args.flips,
        plan.digest(),
        if args.chaos { " (chaos armed)" } else { "" },
    );

    let faults = Arc::new(if args.chaos {
        FaultPlan::parse(CHAOS_SPEC, args.seed).expect("chaos spec parses")
    } else {
        FaultPlan::none()
    });
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, replay_cfg())
        .with_fault_hook(faults.engine_hook());
    let server = RcwServer::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let config = ServerConfig::single(&engine)
        .with_workers(2)
        .with_io_timeout(Duration::from_secs(2))
        .with_faults(Arc::clone(&faults));

    let report = std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        // Subscribers first: each holds a stream over its own seeded node
        // set and drains it to the end, reporting (frames, digest). Under
        // chaos a subscribe may die at birth — that is shed traffic, and
        // the ledger accounts for it.
        let sub_threads: Vec<_> = (0..args.subs)
            .map(|i| {
                let nodes = ds.pick_test_nodes(2, args.seed + 100 + i as u64);
                let addr = addr.clone();
                scope.spawn(move || {
                    // Chaos can eat the connect or the subscribe itself;
                    // retry until the bounded fault budget is spent so the
                    // storm actually exercises live subscriptions.
                    let mut sub = None;
                    for _ in 0..16 {
                        let Ok(client) = Client::connect(&addr) else {
                            continue;
                        };
                        if let Ok(s) = client.subscribe(&nodes) {
                            sub = Some(s);
                            break;
                        }
                    }
                    let mut sub = sub?;
                    let base_epoch = sub.epoch();
                    let mut updates = Vec::new();
                    loop {
                        match sub.next_update() {
                            Ok(Some(update)) => updates.push(update),
                            // Clean end-of-stream (shutdown) or a chaos-cut
                            // connection: report what arrived either way.
                            Ok(None) | Err(ClientError::Io(_)) => break,
                            Err(e) => panic!("malformed frame on stream {i}: {e}"),
                        }
                    }
                    // Rebase epochs on the ack so the digest is comparable
                    // across runs (the engine epoch is a process-global
                    // clock; only the order of epochs is a function of the
                    // stream).
                    rebase_epochs(base_epoch, &mut updates);
                    Some((nodes, updates))
                })
            })
            .collect();

        // The control client fires the plan on schedule, reconnecting when
        // chaos kills its connection mid-disturb. The tight read timeout
        // keeps a fault-dropped response from stalling the stream for the
        // default 60 s.
        let mut control = Client::connect(&addr).expect("connect control");
        control
            .set_read_timeout(Duration::from_secs(2))
            .expect("read timeout");
        let start = Instant::now();
        let mut fired = 0usize;
        for event in &plan.events {
            if let Some(wait) = event.at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let mut attempts = 0;
            loop {
                match control.disturb(&event.flips) {
                    Ok(_) => {
                        fired += 1;
                        break;
                    }
                    // Fault rules are `1@N` — they exhaust after N hits — so
                    // a budget above the spec's total hit count always gets
                    // the event through.
                    Err(_) if attempts < 16 => {
                        attempts += 1;
                        control = Client::connect(&addr).expect("reconnect control");
                        control
                            .set_read_timeout(Duration::from_secs(2))
                            .expect("read timeout");
                    }
                    Err(e) => panic!("disturb kept failing: {e}"),
                }
            }
        }
        println!(
            "fired {fired}/{} events in {:?}",
            plan.events.len(),
            start.elapsed()
        );

        // Shutdown rides the same chaos: a dropped response does not mean
        // the shutdown was not processed. If a retry cannot even connect,
        // the listener is already gone — that IS the shutdown.
        let mut attempts = 0;
        loop {
            match control.shutdown() {
                Ok(_) => break,
                Err(e) if attempts >= 5 => panic!("shutdown kept failing: {e}"),
                Err(_) => {
                    attempts += 1;
                    match Client::connect(&addr) {
                        Ok(c) => {
                            control = c;
                            control
                                .set_read_timeout(Duration::from_secs(2))
                                .expect("read timeout");
                        }
                        Err(_) => break,
                    }
                }
            }
        }
        let report = server_thread.join().expect("server thread");

        for (i, t) in sub_threads.into_iter().enumerate() {
            match t.join().expect("subscriber thread") {
                Some((nodes, updates)) => println!(
                    "subscriber {i} (nodes {nodes:?}): {} frames, digest {:016x}",
                    updates.len(),
                    sequence_digest(updates.iter()),
                ),
                None => println!("subscriber {i}: connection lost before the ack"),
            }
        }
        report
    });

    println!(
        "ledger: owed={} delivered={} shed={}",
        report.updates_owed, report.updates_delivered, report.updates_shed
    );
    if report.updates_delivered + report.updates_shed != report.updates_owed {
        eprintln!("FAIL: delivery ledger does not balance");
        std::process::exit(1);
    }
    println!("ledger balances exactly");
}
