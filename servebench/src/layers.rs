//! Per-layer metrics of a traced run: spans attributed to client requests,
//! layer self-times, the `http`/`wire` replay and the in-process counters.

use crate::load::{Kind, Record};
use crate::stats::{mean, percentile};
use crate::trace::{
    self, Span, CLIENT, ENGINE_DISTURB, ENGINE_GENERATE, GNN_FORWARD, MODEL_CALL, NO_KEY,
};
use crate::{Phase, Quality, Served, Verdict, TRACED_ROUTE};
use rcw_core::GenerationResult;
use rcw_server::http::{FrameBuf, FrameOutcome};
use rcw_server::wire;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Layer self-times of every traced request must add up to the client
/// round trips within this share of their sum.
pub const LAYER_SUM_TOLERANCE: f64 = 0.02;
/// Requests replayed through the `http`/`wire` layers, at most.
const REPLAY_CAP: usize = 20_000;

pub struct LayerInputs<'a> {
    pub headline: Kind,
    pub generate_stream: Kind,
    pub served_bodies: &'a [String],
    pub cold_bodies: &'a [String],
    pub served: &'a Served,
    /// Decoded `/generate` answers by phase, stream and answer index.
    pub decoded: &'a [Vec<Vec<Option<GenerationResult>>>],
    pub quality: &'a Quality,
    pub spans_out: PathBuf,
}

/// Time one traced request spent in each layer, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    engine: u64,
    outer: u64,
    inner_in_outer: u64,
    inner_direct: u64,
    forward_calls: u64,
    rows: u64,
    flops: f64,
    bytes: f64,
}

impl Layers {
    /// `(server, engine/session, localize, gnn)` self-times: each span minus
    /// the part its children cover.
    fn self_times(&self, rtt: u64) -> [u64; 4] {
        [
            rtt.saturating_sub(self.engine),
            self.engine.saturating_sub(self.outer + self.inner_direct),
            self.outer.saturating_sub(self.inner_in_outer),
            self.inner_in_outer + self.inner_direct,
        ]
    }
}

fn round_trip(r: &Record) -> u64 {
    r.received.saturating_sub(r.sent)
}

/// Matches each request to the engine span that served it, then each model
/// span to its request. Returns per-request layer times and the
/// nanoseconds of model spans no request owns.
fn attribute(
    reqs: &[(usize, &Record)],
    warm_len: u64,
    spans: &mut [Span],
) -> (Vec<Layers>, usize, u64) {
    let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == ENGINE_GENERATE || s.name == ENGINE_DISTURB {
            by_key.entry(s.key).or_default().push(i);
        }
    }
    for list in by_key.values_mut() {
        list.sort_by_key(|&i| spans[i].start);
    }
    let mut layers = vec![Layers::default(); reqs.len()];
    let mut owner: HashMap<u64, usize> = HashMap::new();
    // Batch span id -> (segment start, end, request) of each query in it.
    let mut segments: HashMap<u64, Vec<(u64, u64, usize)>> = HashMap::new();
    let mut unmatched = 0;
    for (i, &(_, r)) in reqs.iter().enumerate() {
        let key = match r.kind {
            Kind::Warm => u64::from(r.query),
            Kind::Cold => warm_len + u64::from(r.query),
            Kind::Write => NO_KEY,
            Kind::Setup => continue,
        };
        let found = by_key.get(&key).and_then(|list| {
            list.iter().copied().find(|&s| {
                let span = &spans[s];
                span.start >= r.sent && span.end <= r.received && span.request == trace::NO_REQUEST
            })
        });
        let Some(s) = found else {
            unmatched += 1;
            continue;
        };
        let span = &mut spans[s];
        span.request = i as u64;
        layers[i].engine = span.dur();
        owner.insert(span.id, i);
        if span.parent != 0 {
            segments
                .entry(span.parent)
                .or_default()
                .push((span.segment, span.end, i));
        }
    }
    let resolve = |parent: u64, at: u64| -> Option<usize> {
        owner.get(&parent).copied().or_else(|| {
            segments
                .get(&parent)?
                .iter()
                .find(|&&(seg, end, _)| seg <= at && at <= end)
                .map(|&(_, _, i)| i)
        })
    };
    let mut outer_owner: HashMap<u64, usize> = HashMap::new();
    let mut unattributed = 0u64;
    for span in spans.iter_mut().filter(|s| s.name == MODEL_CALL) {
        match resolve(span.parent, span.start) {
            Some(i) => {
                layers[i].outer += span.dur();
                outer_owner.insert(span.id, i);
                span.request = i as u64;
            }
            None => unattributed += span.dur(),
        }
    }
    for span in spans.iter_mut().filter(|s| s.name == GNN_FORWARD) {
        let (owner_of, in_outer) = match outer_owner.get(&span.parent) {
            Some(&i) => (Some(i), true),
            None => (resolve(span.parent, span.start), false),
        };
        let Some(i) = owner_of else {
            unattributed += span.dur();
            continue;
        };
        let l = &mut layers[i];
        if in_outer {
            l.inner_in_outer += span.dur();
        } else {
            l.inner_direct += span.dur();
        }
        l.forward_calls += 1;
        l.rows += u64::from(span.rows);
        l.flops += span.flops;
        l.bytes += span.bytes;
        span.request = i as u64;
    }
    (layers, unmatched, unattributed)
}

/// Mean microseconds of three replayed layer calls per request, plus the
/// mean response size: (http framing, wire decode, wire encode, bytes).
fn replay(x: &LayerInputs<'_>, phase_idx: usize, verdict: &mut Verdict) -> [f64; 4] {
    let phase = &x.served.phases[phase_idx];
    let (mut frame, mut dec, mut enc, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let prefix = format!("/{TRACED_ROUTE}");
    'streams: for (s, stream) in phase.streams.iter().enumerate() {
        for r in stream
            .records
            .iter()
            .filter(|r| r.kind == x.generate_stream && r.ok())
        {
            if frame.len() >= REPLAY_CAP {
                break 'streams;
            }
            let body = match r.kind {
                Kind::Cold => &x.cold_bodies[r.query as usize],
                _ => &x.served_bodies[r.query as usize],
            };
            // The request exactly as `Client` writes it.
            let message = format!(
                "POST {prefix}/generate HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                x.served.addr,
                body.len()
            );
            let t = Instant::now();
            let mut buf = FrameBuf::new();
            buf.extend(message.as_bytes());
            let outcome = buf.try_take();
            frame.push(t.elapsed().as_nanos() as f64);
            let framed =
                matches!(&outcome, FrameOutcome::Complete(req) if req.body == body.as_bytes());

            let t = Instant::now();
            let nodes = wire::nodes_from_body(body);
            dec.push(t.elapsed().as_nanos() as f64);

            let text = stream.bodies[r.answer as usize].trim_end();
            bytes.push(text.len() as f64);
            let Some(answer) = x.decoded[phase_idx][s][r.answer as usize].as_ref() else {
                verdict.fail("replay: undecodable answer".into());
                continue;
            };
            let t = Instant::now();
            let encoded = wire::generation_to_body(answer);
            enc.push(t.elapsed().as_nanos() as f64);
            if !framed || nodes.is_err() || encoded != text {
                verdict.fail(format!(
                    "replay of {:?} {} disagrees with the wire",
                    r.kind, r.query
                ));
            }
        }
    }
    [
        mean(&frame) / 1e3,
        mean(&dec) / 1e3,
        mean(&enc) / 1e3,
        mean(&bytes),
    ]
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn per_layer(x: &LayerInputs<'_>, verdict: &mut Verdict) -> Vec<(String, f64, &'static str)> {
    let served = x.served;
    let traced_idx = served
        .phases
        .iter()
        .position(|p| p.traced)
        .expect("traced phase");
    let phase = &served.phases[traced_idx];
    let untraced = served
        .phases
        .iter()
        .find(|p| !p.traced)
        .expect("untraced phase");
    let reqs: Vec<(usize, &Record)> = phase
        .streams
        .iter()
        .enumerate()
        .flat_map(|(s, st)| st.records.iter().map(move |r| (s, r)))
        .collect();
    let mut spans = phase.spans.clone();
    let (layers, unmatched, unattributed) =
        attribute(&reqs, x.served_bodies.len() as u64, &mut spans);

    // The add-up check over every traced request.
    let (mut rtt_sum, mut self_sum) = (0u64, 0u64);
    for (l, (_, r)) in layers.iter().zip(&reqs) {
        let rtt = round_trip(r);
        rtt_sum += rtt;
        self_sum += l.self_times(rtt).iter().sum::<u64>();
    }
    let gap = frac((self_sum as f64 - rtt_sum as f64).abs(), rtt_sum as f64);
    verdict.fitness(
        gap <= LAYER_SUM_TOLERANCE && unmatched == 0 && unattributed == 0,
        format!(
            "layer self-times sum to the round trips within {:.3}% (tolerance {:.0}%); {unmatched} requests without an engine span, {unattributed} ns of model spans without a request",
            gap * 100.0,
            LAYER_SUM_TOLERANCE * 100.0
        ),
    );

    // Headline-stream layer means.
    let head: Vec<usize> = (0..reqs.len())
        .filter(|&i| reqs[i].1.kind == x.headline)
        .collect();
    let n_head = head.len().max(1) as f64;
    let mut part = [0.0f64; 4];
    let (mut calls, mut rows, mut flops, mut bytes, mut head_rtt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &i in &head {
        let rtt = round_trip(reqs[i].1);
        head_rtt += rtt as f64;
        for (p, t) in part.iter_mut().zip(layers[i].self_times(rtt)) {
            *p += t as f64;
        }
        calls += layers[i].forward_calls as f64;
        rows += layers[i].rows as f64;
        flops += layers[i].flops;
        bytes += layers[i].bytes;
    }

    // Work counters per headline request, from the replies.
    let mut work = [0.0f64; 3];
    let mut hits = (0.0, 0.0);
    for &i in &head {
        let (s, r) = reqs[i];
        let stats = match r.kind {
            Kind::Write => phase.streams[s]
                .reports
                .get(r.answer as usize)
                .map(|w| w.stats.clone()),
            _ => x.decoded[traced_idx][s]
                .get(r.answer as usize)
                .and_then(Option::as_ref)
                .map(|a| a.stats.clone()),
        };
        if let Some(st) = stats {
            work[0] += st.inference_calls as f64;
            work[1] += st.disturbances_verified as f64;
            work[2] += st.expand_rounds as f64;
        }
    }
    for (s, st) in phase.streams.iter().enumerate() {
        for r in st.records.iter().filter(|r| r.kind == x.generate_stream) {
            if let Some(Some(a)) = x.decoded[traced_idx][s].get(r.answer as usize) {
                hits.0 += f64::from(u8::from(crate::check::is_hit(a)));
                hits.1 += 1.0;
            }
        }
    }

    // Engine-side views.
    let warm: Vec<usize> = (0..reqs.len())
        .filter(|&i| reqs[i].1.kind == Kind::Warm)
        .collect();
    let lookup: Vec<f64> = warm
        .iter()
        .map(|&i| layers[i].engine as f64 / 1e3)
        .collect();
    let sweeps: Vec<&Span> = spans.iter().filter(|s| s.name == ENGINE_DISTURB).collect();
    let sweep_ms: Vec<f64> = sweeps.iter().map(|s| s.dur() as f64 / 1e6).collect();
    let overlapping = warm
        .iter()
        .filter(|&&i| {
            let r = reqs[i].1;
            sweeps
                .iter()
                .any(|s| r.sent < s.end && r.received > s.start)
        })
        .count();
    let reports: Vec<&rcw_core::DisturbReport> =
        phase.streams.iter().flat_map(|s| &s.reports).collect();
    let touched: f64 = reports
        .iter()
        .map(|w| (w.reverified + w.repaired + w.regenerated + w.degraded) as f64)
        .sum();
    let untouched: f64 = reports.iter().map(|w| w.untouched as f64).sum();
    let useful: f64 = reports
        .iter()
        .map(|w| (w.repaired + w.regenerated) as f64)
        .sum();
    let (before, after) = phase.engine;
    let hood = (
        (after.hood_hits - before.hood_hits) as f64,
        (after.hood_misses - before.hood_misses) as f64,
    );
    let ppr = (
        (after.ppr_hits - before.ppr_hits) as f64,
        (after.ppr_misses - before.ppr_misses) as f64,
    );

    let [frame_us, decode_us, encode_us, resp_bytes] = replay(x, traced_idx, verdict);
    let late: Vec<f64> = reqs.iter().map(|(_, r)| r.late() as f64 / 1e6).collect();
    let head_p50 = |p: &Phase| {
        let mut v: Vec<f64> = p
            .streams
            .iter()
            .flat_map(|s| &s.records)
            .filter(|r| r.kind == x.headline)
            .map(|r| r.latency() as f64)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(&mut v, 50.0)
        }
    };
    let overhead = head_p50(phase) / head_p50(untraced) - 1.0;

    // Client spans complete the written trace.
    let first_id = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    for (id, (i, (_, r))) in (first_id..).zip(reqs.iter().enumerate()) {
        spans.push(Span {
            id,
            parent: 0,
            name: CLIENT,
            start: r.sent,
            end: r.received,
            key: NO_KEY,
            request: i as u64,
            segment: r.sent,
            rows: 0,
            flops: 0.0,
            bytes: 0.0,
        });
    }
    spans.sort_by_key(|s| (s.start, s.id));
    if let Err(e) = trace::write_spans(&x.spans_out, &spans) {
        eprintln!("could not write {}: {e}", x.spans_out.display());
    }
    println!(
        "spans: {} written to {}",
        spans.len(),
        x.spans_out.display()
    );

    let (batch_calls, batch_queries) = phase.batches;
    let q = x.quality;
    vec![
        ("server.self_us".into(), part[0] / n_head / 1e3, "us"),
        ("server.http_frame_us".into(), frame_us, "us"),
        ("server.wire_decode_us".into(), decode_us, "us"),
        ("server.wire_encode_us".into(), encode_us, "us"),
        ("server.resp_bytes".into(), resp_bytes, "bytes"),
        (
            "server.admission_wait_us".into(),
            frac(phase.server.0 as f64, phase.server.1 as f64),
            "us",
        ),
        (
            "server.batch_size".into(),
            frac(batch_queries as f64, batch_calls as f64),
            "count",
        ),
        ("engine.lookup_us".into(), mean(&lookup), "us"),
        ("engine.warm_hit_frac".into(), frac(hits.0, hits.1), "ratio"),
        ("engine.sweep_ms".into(), mean(&sweep_ms), "ms"),
        (
            "engine.touched_per_disturb".into(),
            frac(touched, reports.len() as f64),
            "count",
        ),
        (
            "engine.untouched_frac".into(),
            frac(untouched, touched + untouched),
            "ratio",
        ),
        (
            "engine.repair_useful_frac".into(),
            frac(useful, touched),
            "ratio",
        ),
        (
            "engine.reads_overlapping_sweep_frac".into(),
            frac(overlapping as f64, warm.len() as f64),
            "ratio",
        ),
        (
            "engine.hood_hit_frac".into(),
            frac(hood.0, hood.0 + hood.1),
            "ratio",
        ),
        ("session.self_ms".into(), part[1] / n_head / 1e6, "ms"),
        ("session.inference_calls".into(), work[0] / n_head, "count"),
        (
            "session.disturbances_verified".into(),
            work[1] / n_head,
            "count",
        ),
        ("session.expand_rounds".into(), work[2] / n_head, "count"),
        ("localize.ball_us".into(), part[2] / n_head / 1e3, "us"),
        ("gnn.forward_us".into(), part[3] / n_head / 1e3, "us"),
        ("gnn.forward_share".into(), frac(part[3], head_rtt), "ratio"),
        ("gnn.forward_calls".into(), calls / n_head, "count"),
        ("gnn.ball_rows".into(), frac(rows, calls), "rows"),
        ("linalg.flops_per_call".into(), frac(flops, calls), "flop"),
        ("linalg.bytes_per_call".into(), frac(bytes, calls), "bytes"),
        (
            "pagerank.ppr_hit_frac".into(),
            frac(ppr.0, ppr.0 + ppr.1),
            "ratio",
        ),
        (
            "harness.late_ms".into(),
            if late.is_empty() {
                0.0
            } else {
                percentile(&mut late.clone(), 99.0)
            },
            "ms",
        ),
        ("harness.trace_overhead_frac".into(), overhead, "ratio"),
        ("harness.layer_sum_gap_frac".into(), gap, "ratio"),
        ("quality.robust_frac".into(), q.robust_frac, "ratio"),
        (
            "quality.witness_edges_mean".into(),
            q.witness_edges_mean,
            "edges",
        ),
        ("quality.fidelity_plus".into(), q.fidelity_plus, "ratio"),
    ]
}
