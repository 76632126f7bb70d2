//! Seeded corruption sweep over the wire codec: every decoder must answer
//! truncated, byte-flipped, and spliced payloads with a `WireError` (or a
//! clean parse failure) — never a panic. The corpus is derived from valid
//! encodings of every wire type, so the mutations land on realistic
//! structure, not just random noise.
//!
//! `RCW_WIRE_SEEDS=<n>` widens the sweep to `n` deterministic seeds (the
//! nightly chaos leg runs deeper); the default keeps tier-1 fast.

use rcw_core::{
    DisturbReport, EngineSnapshot, EngineStats, GenerationResult, GenerationStats, Witness,
    WitnessLevel,
};
use rcw_graph::{Disturbance, EdgeSubgraph};
use rcw_linalg::Rng;
use rcw_server::wire::{self, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn fuzz_seeds() -> Vec<u64> {
    const DEFAULT: u64 = 8;
    let n = match std::env::var("RCW_WIRE_SEEDS") {
        Ok(n) => n
            .parse()
            .expect("RCW_WIRE_SEEDS must be a seed count, e.g. RCW_WIRE_SEEDS=64"),
        Err(_) => DEFAULT,
    };
    (0..n).collect()
}

/// A wire decoder, type-erased to "did decoding error?" (calling one must
/// never panic) so one loop drives every wire type.
type DecodeErrs = fn(&Json) -> bool;

/// One valid encoding per wire type, paired with its decoder. Witnesses and
/// generation results decode through the direct body codec they travel in;
/// a witness is decoded inside an otherwise valid `/generate` body.
fn corpus() -> Vec<(String, DecodeErrs)> {
    fn decode_witness(v: &Json) -> bool {
        let body = format!(
            r#"{{"v":1,"witness":{},"level":"robust","nontrivial":true,"stale":false,"stats":{{"inference_calls":0,"disturbances_verified":0,"expand_rounds":0,"elapsed_us":0}}}}"#,
            v.encode()
        );
        wire::generation_from_body(&body).is_err()
    }
    fn decode_disturbance(v: &Json) -> bool {
        wire::disturbance_from_json(v).is_err()
    }
    fn decode_stats(v: &Json) -> bool {
        wire::engine_stats_from_json(v).is_err()
    }
    fn decode_snapshot(v: &Json) -> bool {
        wire::snapshot_from_json(v).is_err()
    }
    fn decode_report(v: &Json) -> bool {
        wire::disturb_report_from_json(v).is_err()
    }
    fn decode_generation(v: &Json) -> bool {
        wire::generation_from_body(&v.encode()).is_err()
    }

    let witness = Witness::new(
        EdgeSubgraph::from_edges([(0, 1), (1, 2), (4, 7)]),
        vec![1, 4],
        vec![0, 5],
    );
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
    let snapshot = EngineSnapshot {
        stats: stats.clone(),
        stored: 2,
        epoch: 41,
        feature_epoch: 40,
        hood_hits: 9,
        hood_misses: 4,
        workers: 3,
    };
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
        // Per-entry repair outcomes never cross the wire in the report (the
        // subscription stream carries them), so the corpus leaves them empty.
        entries: Vec::new(),
    };
    let generation = GenerationResult {
        witness,
        level: WitnessLevel::Robust,
        nontrivial: true,
        stale: true,
        stats: GenerationStats::default(),
    };
    let generation_body = wire::generation_to_body(&generation);
    let witness_object = Json::parse(&generation_body)
        .expect("generation body is JSON")
        .field("witness")
        .expect("witness field")
        .encode();
    vec![
        (witness_object, decode_witness),
        (
            wire::disturbance_to_json(&Disturbance::from_pairs([(5, 2), (7, 9), (0, 3)])).encode(),
            decode_disturbance,
        ),
        (wire::engine_stats_to_json(&stats).encode(), decode_stats),
        (wire::snapshot_to_json(&snapshot).encode(), decode_snapshot),
        (
            wire::disturb_report_to_json(&report).encode(),
            decode_report,
        ),
        (generation_body, decode_generation),
    ]
}

/// One seeded corruption of `text`: truncation, byte flips, byte insertion,
/// or a splice of one payload into another — the failure modes a truncated
/// write or corrupted transport actually produces.
fn corrupt(text: &str, other: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.gen_range(0..4u64) {
        0 => {
            // truncate at an arbitrary byte (mid-token, mid-escape, ...)
            bytes.truncate(rng.gen_range(0..bytes.len()));
        }
        1 => {
            // flip 1..4 bytes to arbitrary values
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = (rng.next_u64() & 0xff) as u8;
            }
        }
        2 => {
            // insert structural noise where it hurts most
            let noise = [b'{', b'[', b'"', b',', b':', b'\\', b'0', 0xff];
            let at = rng.gen_range(0..bytes.len() + 1);
            bytes.insert(at, noise[(rng.next_u64() % noise.len() as u64) as usize]);
        }
        _ => {
            // splice: head of one payload, tail of another
            let cut = rng.gen_range(0..bytes.len());
            let other = other.as_bytes();
            let from = rng.gen_range(0..other.len());
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn corrupted_payloads_error_and_never_panic() {
    let corpus = corpus();
    let mut failures: Vec<String> = Vec::new();
    for seed in fuzz_seeds() {
        let mut rng = Rng::seed_from_u64(0xf022_ee11 ^ seed);
        for round in 0..64 {
            let pick = rng.gen_range(0..corpus.len());
            let (ref text, decode) = corpus[pick];
            let other = &corpus[rng.gen_range(0..corpus.len())].0;
            let mutated = corrupt(text, other, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Parse may fail (fine); if it parses, the decoder must
                // reject or accept without panicking — a mutated payload can
                // decode successfully when the mutation hit redundant bytes.
                if let Ok(parsed) = Json::parse(&mutated) {
                    let _ = decode(&parsed);
                }
            }));
            if outcome.is_err() {
                failures.push(format!("seed {seed} round {round}: {mutated:?}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "codec panicked on corrupted payloads:\n{}",
        failures.join("\n")
    );
}

/// Raw-body (zero-tree) decoders run straight off the byte stream, so the
/// corruption sweep hits them without the `Json::parse` pre-filter: the v1
/// envelope bodies (the `/generate` request included) and the NDJSON
/// subscription frames.
#[test]
fn corrupted_raw_bodies_error_and_never_panic() {
    type RawDecodeErrs = fn(&str) -> bool;
    fn decode_generation_body(text: &str) -> bool {
        wire::generation_from_body(text).is_err()
    }
    fn decode_frame(text: &str) -> bool {
        wire::frame_from_body(text).is_err()
    }
    fn decode_nodes(text: &str) -> bool {
        wire::nodes_from_body(text).is_err()
    }
    fn decode_error_body(text: &str) -> bool {
        match Json::parse(text) {
            Ok(v) => wire::error_from_json(&v).is_err(),
            Err(_) => true,
        }
    }

    let generation = GenerationResult {
        witness: Witness::new(
            EdgeSubgraph::from_edges([(0, 1), (1, 2), (4, 7)]),
            vec![1, 4],
            vec![0, 5],
        ),
        level: WitnessLevel::Robust,
        nontrivial: true,
        stale: false,
        stats: GenerationStats::default(),
    };
    let update = wire::WitnessUpdate {
        subscription: 3,
        disturbance: 9,
        outcome: rcw_core::RepairOutcome::Repaired,
        epoch: 12,
        result: generation.clone(),
    };
    let corpus: Vec<(String, RawDecodeErrs)> = vec![
        (
            wire::generation_to_body(&generation),
            decode_generation_body,
        ),
        (
            wire::subscribed_frame_to_body(1, 7, &[1, 4], &generation),
            decode_frame,
        ),
        (wire::update_frame_to_body(&update), decode_frame),
        (
            wire::error_to_body("overloaded", "queue full", true),
            decode_error_body,
        ),
        (
            r#"{"v":1,"nodes":[3,1.0,4],"trace":{"id":"a\u0062"}}"#.to_string(),
            decode_nodes,
        ),
    ];
    let mut failures: Vec<String> = Vec::new();
    for seed in fuzz_seeds() {
        let mut rng = Rng::seed_from_u64(0x5ab5_c01d ^ seed);
        for round in 0..64 {
            let pick = rng.gen_range(0..corpus.len());
            let (ref text, decode_errs) = corpus[pick];
            let other = &corpus[rng.gen_range(0..corpus.len())].0;
            let mutated = corrupt(text, other, &mut rng);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _ = decode_errs(&mutated);
            }));
            if outcome.is_err() {
                failures.push(format!("seed {seed} round {round}: {mutated:?}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "raw-body codec panicked on corrupted payloads:\n{}",
        failures.join("\n")
    );
}

#[test]
fn dropping_any_field_is_rejected_never_defaulted() {
    // Structured mutation: drop one field from an otherwise valid object.
    // The type's own decoder must answer the missing field with Err — a
    // decoder that silently defaults a field would hide wire drift.
    for (text, decode_errs) in corpus() {
        let Ok(Json::Obj(fields)) = Json::parse(&text) else {
            panic!("corpus entry is not an object: {text}");
        };
        for skip in 0..fields.len() {
            let reduced = Json::Obj(
                fields
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, kv)| kv.clone())
                    .collect(),
            );
            let (name, _) = &fields[skip];
            assert!(
                decode_errs(&reduced),
                "dropping field {name:?} from {text} must fail decoding"
            );
        }
    }
}
