//! Replay determinism: the same seed and the same disturbance stream
//! produce the identical update sequence — byte for byte — across two
//! independent server runs.
//!
//! This is the property that makes the replay harness (`rcw_replay`) usable
//! as a regression oracle: a subscriber's [`sequence_digest`] is a pure
//! function of (dataset seed, plan seed, stream shape), because repaired
//! entries are built under the engine's writer lock from the exact state it
//! then publishes, with zeroed per-request stats, and every other frame
//! field (subscription id, disturbance id, rebased epoch, witness) is
//! deterministic given the same request order. Epochs are rebased to their
//! rank in the stream: the engine epoch is a process-global clock that
//! other tests in this binary advance concurrently, so raw epochs and their
//! differences vary between runs.

use rcw_bench::replay::{rebase_epochs, sequence_digest, ReplayPlan};
use rcw_core::{RcwConfig, WitnessEngine};
use rcw_datasets::{citeseer, Scale};
use rcw_server::client::Client;
use rcw_server::{RcwServer, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 11;

fn quick_cfg() -> RcwConfig {
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

/// One full run: build the dataset and engine from `SEED`, subscribe a
/// single stream, fire the plan's events sequentially, then drain the
/// stream to the end. Epochs are rebased to their rank after the
/// subscription ack — the engine epoch is a process-global clock, so only
/// their order is a function of the stream. Returns `(frames, digest,
/// encoded frames)`.
fn run_stream(plan: &ReplayPlan, extra: &[(usize, usize)]) -> (u64, u64, Vec<String>) {
    let ds = citeseer::build(Scale::Tiny, SEED);
    let appnp = ds.train_appnp(8, SEED);
    let engine = WitnessEngine::new(Arc::new(ds.graph.clone()), &appnp, quick_cfg());
    let nodes = ds.pick_test_nodes(2, SEED + 100);
    let server = RcwServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let config = ServerConfig::single(&engine).with_workers(2);

    std::thread::scope(|scope| {
        let config_ref = &config;
        let server_thread = scope.spawn(move || server.serve_config(config_ref).expect("serve"));

        let mut sub = Client::connect(&addr)
            .expect("connect sub")
            .subscribe(&nodes)
            .expect("subscribe");

        let mut control = Client::connect(&addr).expect("connect control");
        for event in &plan.events {
            control.disturb(&event.flips).expect("disturb");
        }
        // One deterministic event aimed straight at the subscription: an
        // edge incident to a subscribed node is always inside the entry's
        // footprint, so the run is guaranteed at least one update frame.
        control.disturb(extra).expect("targeted disturb");
        control.shutdown().expect("shutdown");

        let base_epoch = sub.epoch();
        let mut updates = Vec::new();
        loop {
            match sub.next_update() {
                Ok(Some(update)) => updates.push(update),
                Ok(None) => break,
                Err(e) => panic!("stream error: {e}"),
            }
        }
        let report = server_thread.join().expect("server thread");
        assert_eq!(
            report.updates_delivered + report.updates_shed,
            report.updates_owed,
            "ledger balances"
        );
        assert_eq!(report.updates_shed, 0, "fault-free run sheds nothing");
        assert_eq!(report.updates_delivered as usize, updates.len());

        rebase_epochs(base_epoch, &mut updates);
        let frames: Vec<String> = updates
            .iter()
            .map(rcw_server::wire::update_frame_to_body)
            .collect();
        (
            updates.len() as u64,
            sequence_digest(updates.iter()),
            frames,
        )
    })
}

#[test]
fn same_seed_and_stream_produce_the_identical_update_sequence() {
    let ds = citeseer::build(Scale::Tiny, SEED);
    let plan = ReplayPlan::from_graph(&ds.graph, SEED, 5, 2, Duration::ZERO);

    // The targeted flip: the first graph edge incident to a subscribed node.
    let nodes = ds.pick_test_nodes(2, SEED + 100);
    let target = ds
        .graph
        .edges()
        .find(|&(u, v)| nodes.contains(&u) || nodes.contains(&v))
        .expect("subscribed node has an incident edge");
    let extra = [target];

    let (count_a, digest_a, frames_a) = run_stream(&plan, &extra);
    let (count_b, digest_b, frames_b) = run_stream(&plan, &extra);

    assert!(
        count_a > 0,
        "the targeted disturbance owed at least one frame"
    );
    assert_eq!(count_a, count_b, "same stream, same number of updates");
    assert_eq!(
        frames_a, frames_b,
        "update frames are byte-identical across runs"
    );
    assert_eq!(digest_a, digest_b, "sequence digests agree");
}

#[test]
fn plan_digest_is_stable_for_a_dataset_seed() {
    let ds = citeseer::build(Scale::Tiny, SEED);
    let a = ReplayPlan::from_graph(&ds.graph, SEED, 5, 2, Duration::from_millis(3));
    let b = ReplayPlan::from_graph(&ds.graph, SEED, 5, 2, Duration::from_millis(3));
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    let c = ReplayPlan::from_graph(&ds.graph, SEED + 1, 5, 2, Duration::from_millis(3));
    assert_ne!(a.digest(), c.digest());
}
