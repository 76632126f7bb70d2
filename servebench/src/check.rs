//! The output check: every wire answer against an in-process reference
//! `WitnessEngine` on the same graph, model and configuration.

use crate::inputs::Query;
use rcw_core::{DisturbReport, GenerationResult, GenerationStats, RcwConfig, WitnessEngine};
use rcw_gnn::GnnModel;
use rcw_graph::{Disturbance, Graph};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Whether two answers agree bit for bit on everything but wall time:
/// witness, level, `nontrivial`, `stale` and the work counters.
pub fn same_answer(a: &GenerationResult, b: &GenerationResult) -> bool {
    a.witness == b.witness
        && a.level == b.level
        && a.nontrivial == b.nontrivial
        && a.stale == b.stale
        && same_work(&a.stats, &b.stats)
}

fn same_work(a: &GenerationStats, b: &GenerationStats) -> bool {
    a.inference_calls == b.inference_calls
        && a.disturbances_verified == b.disturbances_verified
        && a.expand_rounds == b.expand_rounds
}

/// Whether two disturb reports agree on everything but wall time and the
/// epoch number (epochs come from a process-wide counter).
pub fn same_report(a: &DisturbReport, b: &DisturbReport) -> bool {
    a.flips_applied == b.flips_applied
        && a.footprint_size == b.footprint_size
        && a.untouched == b.untouched
        && a.reverified == b.reverified
        && a.repaired == b.repaired
        && a.regenerated == b.regenerated
        && a.degraded == b.degraded
        && same_work(&a.stats, &b.stats)
}

/// What a store hit answers for a query whose first (cold) answer was
/// `cold`: the same witness and verdict, no work.
pub fn as_hit(cold: &GenerationResult) -> GenerationResult {
    GenerationResult {
        stale: false,
        stats: GenerationStats::default(),
        ..cold.clone()
    }
}

/// Whether an answer was served from the store (no session work).
pub fn is_hit(r: &GenerationResult) -> bool {
    r.stats.inference_calls == 0 && r.stats.expand_rounds == 0
}

/// First (cold) answers of `queries` on a fresh engine, computed on
/// `threads` threads. Queries must be distinct, so none is a store hit.
pub fn cold_answers(
    graph: &Arc<Graph>,
    model: &dyn GnnModel,
    cfg: &RcwConfig,
    queries: &BTreeSet<Query>,
    threads: usize,
) -> BTreeMap<Query, GenerationResult> {
    let engine: WitnessEngine<'_, dyn GnnModel> =
        WitnessEngine::new(Arc::clone(graph), model, cfg.clone());
    let queries: Vec<&Query> = queries.iter().collect();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&q) = queries.get(i) else { break };
                let r = engine.generate(q);
                out.lock().expect("answers lock").insert(q.clone(), r);
            });
        }
    });
    out.into_inner().expect("answers lock")
}

/// The write stream replayed on a reference engine: the served set warmed,
/// then `writes` flips applied in order. `states[s][i]` is what a read of
/// `served[i]` answers after `s` writes; `reports[w]` is write `w`'s report.
pub struct WriteReplay {
    pub states: Vec<Vec<GenerationResult>>,
    pub reports: Vec<DisturbReport>,
    /// Reads between writes that were not store hits (must stay empty).
    pub misses: usize,
}

pub fn replay_writes(
    graph: &Arc<Graph>,
    model: &dyn GnnModel,
    cfg: &RcwConfig,
    served: &[Query],
    flips: &[(usize, usize)],
    writes: usize,
) -> WriteReplay {
    let engine: WitnessEngine<'_, dyn GnnModel> =
        WitnessEngine::new(Arc::clone(graph), model, cfg.clone());
    for q in served {
        engine.generate(q);
    }
    let mut misses = 0;
    let read_all = |misses: &mut usize| -> Vec<GenerationResult> {
        served
            .iter()
            .map(|q| {
                let r = engine.generate(q);
                *misses += usize::from(!is_hit(&r));
                r
            })
            .collect()
    };
    let mut states = vec![read_all(&mut misses)];
    let mut reports = Vec::with_capacity(writes);
    for w in 0..writes {
        reports.push(engine.disturb(&[Disturbance::from_pairs([flips[w / 2]])]));
        states.push(read_all(&mut misses));
    }
    WriteReplay {
        states,
        reports,
        misses,
    }
}

/// The states a read may have seen: at least every write answered before it
/// was sent, at most every write sent before its answer arrived. `writes`
/// holds each write's `(sent, received)`, in order.
pub fn visible_states(writes: &[(u64, u64)], sent: u64, received: u64) -> (usize, usize) {
    let lo = writes.iter().filter(|w| w.1 < sent).count();
    let hi = writes.iter().filter(|w| w.0 < received).count();
    (lo, hi.max(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_overlapping_a_write_may_see_either_side() {
        let writes = [(100, 200), (300, 400)];
        assert_eq!(visible_states(&writes, 10, 50), (0, 0));
        assert_eq!(visible_states(&writes, 150, 160), (0, 1));
        assert_eq!(visible_states(&writes, 210, 250), (1, 1));
        assert_eq!(visible_states(&writes, 250, 350), (1, 2));
        assert_eq!(visible_states(&writes, 450, 500), (2, 2));
    }
}
