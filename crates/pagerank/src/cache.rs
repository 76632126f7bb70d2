//! Epoch-keyed personalized-PageRank row cache.
//!
//! PPR rows over the *host* graph are reused heavily by a long-lived witness
//! engine: candidate-pair pruning scores every pair near a test node by the
//! test node's PPR mass, and the same test nodes recur across queries. Rows
//! are keyed by the graph's structural epoch ([`rcw_graph::Graph::epoch`]).
//!
//! Invalidation is either total (an unknown epoch flushes everything — the
//! safe default when the caller does not track footprints) or selective:
//! [`PprCache::advance_epoch`] keeps rows whose seed node lies outside the
//! disturbance footprint. A retained row differs from the freshly computed
//! one by at most the PPR mass the seed places beyond the footprint radius.
//! Note the parameterization: throughout this workspace `alpha` is the
//! *continuation* probability (`pi = (1-alpha) e_v + alpha * pi * P`, as in
//! [`crate::ppr::ppr_row`]), so mass at distance `> h` from the seed is
//! bounded by `alpha^(h+1)` — with the default `alpha = 0.2` and a footprint
//! radius of 2 that is under 1% of the row, the same order as the iterative
//! solver's own truncation. This is why footprint-disjoint rows are safe to
//! keep.

use crate::ppr::ppr_row;
use rcw_graph::{Csr, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    epoch: u64,
    rows: BTreeMap<NodeId, Arc<Vec<f64>>>,
    hits: usize,
    misses: usize,
}

/// A shared, interior-mutable cache of PPR rows at a fixed teleport
/// probability and iteration budget.
#[derive(Debug)]
pub struct PprCache {
    alpha: f64,
    iters: usize,
    inner: Mutex<Inner>,
}

impl PprCache {
    /// Creates an empty cache computing rows with the given teleport
    /// probability and fixed-point iteration count.
    pub fn new(alpha: f64, iters: usize) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "PprCache: alpha in (0,1)");
        PprCache {
            alpha,
            iters: iters.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The teleport probability rows are computed with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns the PPR row of `v` over `csr`, valid for `epoch`. A cached row
    /// is returned when its epoch matches. An *unknown newer* epoch flushes
    /// the whole cache first (callers that can bound the disturbance use
    /// [`PprCache::advance_epoch`] beforehand to retain unaffected rows). A
    /// *stale* epoch — a query still running on a pre-disturbance graph
    /// snapshot while the cache has already advanced — computes the row
    /// without touching the cache, so a racing reader cannot wipe the rows
    /// `advance_epoch` deliberately retained (graph epochs come from a
    /// monotone process-wide counter, so "stale" is simply `<`).
    pub fn row(&self, csr: &Csr, v: NodeId, epoch: u64) -> Arc<Vec<f64>> {
        {
            let mut inner = self.inner.lock().expect("PprCache lock poisoned");
            if inner.epoch < epoch {
                inner.rows.clear();
                inner.epoch = epoch;
            }
            if inner.epoch == epoch {
                if let Some(row) = inner.rows.get(&v).map(Arc::clone) {
                    inner.hits += 1;
                    return row;
                }
            }
            inner.misses += 1;
        }
        // Fixed-point iteration outside the lock: concurrent misses on
        // different seed nodes must not serialize. A concurrent duplicate
        // compute of the same row is rare and harmless (identical values);
        // the row is only stored if the epoch has not moved meanwhile.
        let row = Arc::new(ppr_row(csr, v, self.alpha, self.iters));
        let mut inner = self.inner.lock().expect("PprCache lock poisoned");
        if inner.epoch == epoch {
            inner.rows.insert(v, Arc::clone(&row));
        }
        row
    }

    /// Moves the cache to `new_epoch`, dropping only rows whose seed node is
    /// inside `stale` (the disturbance footprint) and re-tagging the rest.
    pub fn advance_epoch(&self, new_epoch: u64, stale: &BTreeSet<NodeId>) {
        let mut inner = self.inner.lock().expect("PprCache lock poisoned");
        if inner.epoch == new_epoch {
            return;
        }
        inner.rows.retain(|v, _| !stale.contains(v));
        inner.epoch = new_epoch;
    }

    /// Drops every row and forgets the epoch, as if freshly created; the
    /// lifetime hit/miss counters are kept.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("PprCache lock poisoned");
        inner.rows.clear();
        inner.epoch = 0;
    }

    /// Number of rows currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("PprCache lock poisoned")
            .rows
            .len()
    }

    /// Whether the cache holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime `(hits, misses)` counters.
    pub fn stats(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("PprCache lock poisoned");
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_graph::{generators, GraphView};

    fn csr_of(g: &rcw_graph::Graph) -> Csr {
        Csr::from_view(&GraphView::full(g))
    }

    #[test]
    fn rows_hit_within_an_epoch_and_flush_across() {
        let g = generators::erdos_renyi(12, 0.4, 3);
        let csr = csr_of(&g);
        let cache = PprCache::new(0.2, 30);
        let a = cache.row(&csr, 0, g.epoch());
        let b = cache.row(&csr, 0, g.epoch());
        assert!(Arc::ptr_eq(&a, &b), "second read is a cache hit");
        assert_eq!(cache.stats(), (1, 1));
        // unknown epoch flushes everything
        let mut g2 = g.clone();
        g2.flip_edges_in_place(&[g.edge_vec()[0]]);
        let csr2 = csr_of(&g2);
        let c = cache.row(&csr2, 0, g2.epoch());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 1, "old-epoch rows were dropped");
    }

    #[test]
    fn cached_rows_match_direct_computation() {
        let g = generators::erdos_renyi(10, 0.5, 11);
        let csr = csr_of(&g);
        let cache = PprCache::new(0.15, 40);
        let cached = cache.row(&csr, 3, g.epoch());
        assert_eq!(*cached, ppr_row(&csr, 3, 0.15, 40));
    }

    #[test]
    fn advance_epoch_retains_footprint_disjoint_rows() {
        let g = generators::erdos_renyi(12, 0.4, 5);
        let csr = csr_of(&g);
        let cache = PprCache::new(0.2, 30);
        cache.row(&csr, 0, g.epoch());
        cache.row(&csr, 5, g.epoch());
        let stale: BTreeSet<NodeId> = [5, 6].into_iter().collect();
        cache.advance_epoch(g.epoch() + 1, &stale);
        assert_eq!(cache.len(), 1, "row 5 dropped, row 0 retained");
        // retained row now serves the new epoch without recomputation
        let (hits_before, _) = cache.stats();
        cache.row(&csr, 0, g.epoch() + 1);
        assert_eq!(cache.stats().0, hits_before + 1);
    }

    #[test]
    fn stale_epoch_reads_compute_without_wiping_retained_rows() {
        // A query on a pre-disturbance snapshot races an engine whose cache
        // already advanced: the stale read must neither be served from the
        // newer cache nor destroy what advance_epoch retained.
        let g = generators::erdos_renyi(12, 0.4, 5);
        let csr = csr_of(&g);
        let cache = PprCache::new(0.2, 30);
        let old_epoch = g.epoch();
        let retained = cache.row(&csr, 0, old_epoch);
        cache.advance_epoch(old_epoch + 1, &BTreeSet::new());
        assert_eq!(cache.len(), 1);
        // stale read: correct values, cache untouched
        let stale = cache.row(&csr, 0, old_epoch);
        assert_eq!(*stale, *retained);
        assert!(!Arc::ptr_eq(&stale, &retained), "not served from the cache");
        assert_eq!(cache.len(), 1, "retained row survived the stale read");
        // the retained row still serves the new epoch as a hit
        let (hits_before, _) = cache.stats();
        cache.row(&csr, 0, old_epoch + 1);
        assert_eq!(cache.stats().0, hits_before + 1);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_out_of_range_is_rejected() {
        PprCache::new(1.0, 10);
    }
}
