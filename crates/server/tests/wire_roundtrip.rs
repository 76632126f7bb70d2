//! Wire-codec sweep: every domain type round-trips through its JSON encoding
//! byte-for-byte (encode → parse → decode → re-encode), and the decoders
//! reject malformed payloads with errors rather than panics. Witnesses and
//! generation results go through the direct body codec they travel in
//! (`generation_to_body` / `generation_from_body`); the control types go
//! through the `Json` tree.

use rcw_core::{
    DisturbReport, EngineSnapshot, EngineStats, GenerationResult, GenerationStats, Witness,
    WitnessLevel,
};
use rcw_graph::{Disturbance, EdgeSubgraph};
use rcw_server::wire::{self, Json};
use std::time::Duration;

fn witness_cases() -> Vec<Witness> {
    vec![
        Witness::trivial_nodes(vec![3], vec![1]),
        Witness::new(
            EdgeSubgraph::from_edges([(0, 1), (1, 2), (4, 7)]),
            vec![1, 4],
            vec![0, 5],
        ),
        {
            let mut sg = EdgeSubgraph::from_edges([(10, 11)]);
            sg.add_node(99); // isolated node outside any edge
            Witness::new(sg, vec![99], vec![2])
        },
    ]
}

/// A result carrying `witness`: witnesses cross the wire only inside
/// generation results.
fn carrying(witness: Witness) -> GenerationResult {
    GenerationResult {
        witness,
        level: WitnessLevel::Robust,
        nontrivial: true,
        stale: false,
        stats: GenerationStats::default(),
    }
}

/// An otherwise valid `/generate` response body around a witness object.
fn body_with_witness(witness: &str) -> String {
    format!(
        r#"{{"v":1,"witness":{witness},"level":"robust","nontrivial":true,"stale":false,"stats":{{"inference_calls":0,"disturbances_verified":0,"expand_rounds":0,"elapsed_us":0}}}}"#
    )
}

#[test]
fn witness_round_trips() {
    for w in witness_cases() {
        let encoded = wire::generation_to_body(&carrying(w.clone()));
        let decoded = wire::generation_from_body(&encoded).unwrap();
        assert_eq!(decoded.witness, w, "{encoded}");
        // stability: re-encoding the decoded value is byte-identical
        assert_eq!(wire::generation_to_body(&decoded), encoded);
    }
}

#[test]
fn disturbance_round_trips() {
    for d in [
        Disturbance::new(),
        Disturbance::from_pairs([(0, 1)]),
        Disturbance::from_pairs([(5, 2), (7, 9), (0, 3)]),
    ] {
        let encoded = wire::disturbance_to_json(&d).encode();
        let decoded = wire::disturbance_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, d);
        assert_eq!(wire::disturbance_to_json(&decoded).encode(), encoded);
    }
}

#[test]
fn engine_stats_and_snapshot_round_trip() {
    let stats = EngineStats {
        queries: 17,
        warm_hits: 14,
        sessions_run: 3,
        flips_applied: 2,
        repairs_skipped: 1,
        repairs_reverified: 1,
        repairs_searched: 1,
        repairs_regenerated: 1,
        repairs_degraded: 1,
        degraded_serves: 2,
        budget_aborts: 1,
    };
    let encoded = wire::engine_stats_to_json(&stats).encode();
    let decoded = wire::engine_stats_from_json(&Json::parse(&encoded).unwrap()).unwrap();
    assert_eq!(decoded, stats);

    let snapshot = EngineSnapshot {
        stats,
        stored: 2,
        epoch: 41,
        feature_epoch: 40,
        hood_hits: 9,
        hood_misses: 4,
        workers: 3,
    };
    let encoded = wire::snapshot_to_json(&snapshot).encode();
    let decoded = wire::snapshot_from_json(&Json::parse(&encoded).unwrap()).unwrap();
    assert_eq!(decoded.stats, snapshot.stats);
    assert_eq!(decoded.stored, snapshot.stored);
    assert_eq!(decoded.epoch, snapshot.epoch);
    assert_eq!(decoded.feature_epoch, snapshot.feature_epoch);
    assert_eq!(decoded.hood_hits, snapshot.hood_hits);
    assert_eq!(decoded.hood_misses, snapshot.hood_misses);
    assert_eq!(decoded.workers, snapshot.workers);
}

#[test]
fn disturb_report_and_generation_result_round_trip() {
    let report = DisturbReport {
        epoch: 12,
        flips_applied: 3,
        footprint_size: 20,
        untouched: 1,
        reverified: 1,
        repaired: 1,
        regenerated: 1,
        degraded: 1,
        stats: GenerationStats {
            inference_calls: 123,
            disturbances_verified: 45,
            expand_rounds: 6,
            elapsed: Duration::from_micros(7890),
        },
        // Entry-level outcomes ride the subscription stream, not the report
        // encoding, so the decoded report always has them empty.
        entries: Vec::new(),
    };
    let encoded = wire::disturb_report_to_json(&report).encode();
    let decoded = wire::disturb_report_from_json(&Json::parse(&encoded).unwrap()).unwrap();
    assert_eq!(wire::disturb_report_to_json(&decoded).encode(), encoded);
    assert_eq!(decoded.epoch, report.epoch);
    assert_eq!(decoded.stats.elapsed, report.stats.elapsed);

    for level in [
        WitnessLevel::NotAWitness,
        WitnessLevel::Factual,
        WitnessLevel::Counterfactual,
        WitnessLevel::Robust,
    ] {
        let result = GenerationResult {
            witness: witness_cases().remove(1),
            level,
            nontrivial: level == WitnessLevel::Robust,
            stale: level == WitnessLevel::Factual,
            stats: GenerationStats::default(),
        };
        let encoded = wire::generation_to_body(&result);
        let decoded = wire::generation_from_body(&encoded).unwrap();
        assert_eq!(decoded.witness, result.witness);
        assert_eq!(decoded.level, result.level);
        assert_eq!(decoded.nontrivial, result.nontrivial);
        assert_eq!(decoded.stale, result.stale);
        assert_eq!(wire::generation_to_body(&decoded), encoded);
    }
}

#[test]
fn level_strings_are_total_and_reversible() {
    for level in [
        WitnessLevel::NotAWitness,
        WitnessLevel::Factual,
        WitnessLevel::Counterfactual,
        WitnessLevel::Robust,
    ] {
        assert_eq!(
            wire::level_from_str(wire::level_to_str(level)).unwrap(),
            level
        );
    }
    assert!(wire::level_from_str("ROBUST").is_err());
    assert!(wire::level_from_str("").is_err());
}

#[test]
fn malformed_domain_payloads_are_rejected() {
    let cases: &[(&str, &str)] = &[
        // witness
        ("{}", "witness: empty object"),
        (
            r#"{"nodes":[],"edges":[],"test_nodes":[1],"labels":[]}"#,
            "witness: node/label length mismatch",
        ),
        (
            r#"{"nodes":[],"edges":[[1]],"test_nodes":[],"labels":[]}"#,
            "witness: edge arity",
        ),
        (
            r#"{"nodes":[],"edges":[[2,2]],"test_nodes":[],"labels":[]}"#,
            "witness: self-loop",
        ),
        (
            r#"{"nodes":[-1],"edges":[],"test_nodes":[],"labels":[]}"#,
            "witness: negative node id",
        ),
        (
            r#"{"nodes":[1.5],"edges":[],"test_nodes":[],"labels":[]}"#,
            "witness: fractional node id",
        ),
        (
            r#"{"nodes":"zebra","edges":[],"test_nodes":[],"labels":[]}"#,
            "witness: wrong node container type",
        ),
    ];
    for (payload, what) in cases {
        let body = body_with_witness(payload);
        assert!(Json::parse(&body).is_ok(), "{what}: well-formed JSON");
        assert!(wire::generation_from_body(&body).is_err(), "{what}");
    }
    // The carrier is valid around a valid witness: each case fails on its
    // witness alone.
    let valid = r#"{"nodes":[],"edges":[],"test_nodes":[],"labels":[]}"#;
    assert!(wire::generation_from_body(&body_with_witness(valid)).is_ok());

    assert!(wire::disturbance_from_json(&Json::parse("{}").unwrap()).is_err());
    assert!(
        wire::disturbance_from_json(&Json::parse(r#"{"flips":[[4,4]]}"#).unwrap()).is_err(),
        "self-loop flip"
    );
    assert!(
        wire::disturbance_from_json(&Json::parse(r#"{"flips":[[1,2],[3]]}"#).unwrap()).is_err(),
        "flip arity"
    );

    assert!(wire::engine_stats_from_json(&Json::parse("{}").unwrap()).is_err());
    assert!(wire::engine_stats_from_json(&Json::parse(r#"{"queries":"many"}"#).unwrap()).is_err());
    assert!(wire::snapshot_from_json(&Json::parse(r#"{"stored":1}"#).unwrap()).is_err());
    assert!(wire::disturb_report_from_json(&Json::parse(r#"{"epoch":1}"#).unwrap()).is_err());
    assert!(wire::generation_from_body(
        r#"{"v":1,"witness":{},"level":"robust","nontrivial":true}"#
    )
    .is_err());
    assert!(
        wire::generation_from_body(
            r#"{"v":1,"witness":{"nodes":[],"edges":[],"test_nodes":[],"labels":[]},"level":"extra-robust","nontrivial":true,"stale":false,"stats":{"inference_calls":0,"disturbances_verified":0,"expand_rounds":0,"elapsed_us":0}}"#
        )
        .is_err(),
        "unknown level string"
    );
}
