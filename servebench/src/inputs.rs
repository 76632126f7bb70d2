//! Everything the benchmark sends: the store warm-up sets, the never-seen
//! cold stream, the read orders and the edge-flip plan. The program under
//! test receives only these inputs.
//!
//! The warm sets are a fixed panel, the same for every seed: which 32
//! queries sit in the store sets the cost of a repair sweep and of the
//! set-up store misses, and drawing them from the seed moved those by 30–50%
//! between seeds. The workload seed draws the cold stream, the flips and the
//! read orders.

use rcw_datasets::Dataset;
use rcw_graph::traversal::k_hop_neighborhood_multi;
use rcw_linalg::Rng;
use std::collections::BTreeSet;

/// Test nodes per query.
pub const QUERY_NODES: usize = 2;

/// One witness query: a sorted set of distinct test nodes.
pub type Query = Vec<usize>;

/// The seeded inputs of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// One warm-up set per set-up repetition; the last one is the set the
    /// timed window serves from the store.
    pub warm_sets: Vec<Vec<Query>>,
    /// Store misses in send order: distinct, and disjoint from every warm set.
    pub cold: Vec<Query>,
    /// Edge flips for the write stream. Write `2j` applies `flips[j]`, write
    /// `2j + 1` applies it again, restoring the base graph.
    pub flips: Vec<(usize, usize)>,
}

/// Seed of the warm-set panel.
const PANEL_SEED: u64 = 0x5eed;

/// Independent stream seeds derived from a seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finaliser over (seed, stream).
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_query(rng: &mut Rng, pool: &[usize]) -> Query {
    let mut q: Query = Vec::with_capacity(QUERY_NODES);
    while q.len() < QUERY_NODES {
        let v = pool[rng.gen_range(0..pool.len())];
        if !q.contains(&v) {
            q.push(v);
        }
    }
    q.sort_unstable();
    q
}

impl Inputs {
    /// Draws `setups` warm sets of `warm` queries from the panel seed, and
    /// `cold` cold queries and `flip_pairs` flips from `seed`. Flips stay
    /// inside the 2-hop
    /// neighbourhood of a query in the served (last) warm set, so each one
    /// reaches a stored witness.
    pub fn generate(
        ds: &Dataset,
        seed: u64,
        setups: usize,
        warm: usize,
        cold: usize,
        flip_pairs: usize,
    ) -> Inputs {
        let pool = &ds.test_pool;
        let mut seen: BTreeSet<Query> = BTreeSet::new();
        let mut rng = Rng::seed_from_u64(sub_seed(PANEL_SEED, 1));
        let mut draw_distinct = |rng: &mut Rng, n: usize| -> Vec<Query> {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let q = random_query(rng, pool);
                if seen.insert(q.clone()) {
                    out.push(q);
                }
            }
            out
        };
        let warm_sets: Vec<Vec<Query>> =
            (0..setups).map(|_| draw_distinct(&mut rng, warm)).collect();
        let mut cold_rng = Rng::seed_from_u64(sub_seed(seed, 2));
        let cold = draw_distinct(&mut cold_rng, cold);

        let graph = &ds.graph;
        let served = warm_sets.last().map(Vec::as_slice).unwrap_or(&[]);
        let mut flip_rng = Rng::seed_from_u64(sub_seed(seed, 3));
        let mut flips = Vec::with_capacity(flip_pairs);
        while flips.len() < flip_pairs && !served.is_empty() {
            let entry = &served[flip_rng.gen_range(0..served.len())];
            let hood: Vec<usize> = k_hop_neighborhood_multi(graph, entry, 2)
                .into_iter()
                .collect();
            let u = hood[flip_rng.gen_range(0..hood.len())];
            // Half the flips delete an edge of the neighbourhood, half add one.
            let neighbours: Vec<usize> = graph.neighbors(u).filter(|v| hood.contains(v)).collect();
            let v = if flip_rng.gen_bool(0.5) && !neighbours.is_empty() {
                neighbours[flip_rng.gen_range(0..neighbours.len())]
            } else {
                hood[flip_rng.gen_range(0..hood.len())]
            };
            if u != v {
                flips.push((u.min(v), u.max(v)));
            }
        }
        Inputs {
            warm_sets,
            cold,
            flips,
        }
    }

    /// The warm set the timed window reads from the store.
    pub fn served(&self) -> &[Query] {
        self.warm_sets.last().expect("at least one set-up")
    }
}

/// A seeded, endless order of reads over the served set. Connection `conn`
/// of `conns` reads only the queries whose index is `conn` modulo `conns`,
/// so a query identifies the connection that sent it.
pub struct ReadOrder {
    rng: Rng,
    conn: usize,
    conns: usize,
    len: usize,
}

impl ReadOrder {
    pub fn new(seed: u64, conn: usize, conns: usize, len: usize) -> ReadOrder {
        assert!(
            conn < conns && conns <= len,
            "every connection needs a query"
        );
        ReadOrder {
            rng: Rng::seed_from_u64(sub_seed(seed, 100 + conn as u64)),
            conn,
            conns,
            len,
        }
    }

    /// Index into the served set of the next read.
    pub fn next_index(&mut self) -> usize {
        let slots = self.len.div_ceil(self.conns);
        loop {
            let i = self.rng.gen_range(0..slots) * self.conns + self.conn;
            if i < self.len {
                return i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcw_datasets::{citeseer, Scale};

    fn dataset() -> Dataset {
        citeseer::build(Scale::Full, 7)
    }

    #[test]
    fn same_seed_same_inputs() {
        let ds = dataset();
        let a = Inputs::generate(&ds, 11, 3, 32, 500, 20);
        let b = Inputs::generate(&ds, 11, 3, 32, 500, 20);
        assert_eq!(a, b);
        let c = Inputs::generate(&ds, 12, 3, 32, 500, 20);
        assert_eq!(a.warm_sets, c.warm_sets, "the warm panel is fixed");
        assert_ne!(a.cold, c.cold);
        assert_ne!(a.flips, c.flips);

        let reads = |seed| {
            let mut order = ReadOrder::new(seed, 1, 2, 32);
            (0..200).map(|_| order.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(reads(11), reads(11));
        assert_ne!(reads(11), reads(12));
    }

    #[test]
    fn cold_queries_are_never_seen_before() {
        let ds = dataset();
        let inputs = Inputs::generate(&ds, 5, 5, 32, 4000, 0);
        let mut all: BTreeSet<&Query> = BTreeSet::new();
        for q in inputs.warm_sets.iter().flatten().chain(&inputs.cold) {
            assert_eq!(q.len(), QUERY_NODES);
            assert!(q.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(all.insert(q), "query {q:?} repeats");
        }
    }

    #[test]
    fn flips_touch_a_served_neighbourhood() {
        let ds = dataset();
        let inputs = Inputs::generate(&ds, 9, 2, 32, 0, 50);
        assert_eq!(inputs.flips.len(), 50);
        for &(u, v) in &inputs.flips {
            assert!(u < v);
            assert!(inputs
                .served()
                .iter()
                .any(|q| k_hop_neighborhood_multi(&ds.graph, q, 2).contains(&u)));
        }
    }

    #[test]
    fn read_orders_split_the_set_by_connection() {
        let mut orders: Vec<ReadOrder> = (0..2).map(|c| ReadOrder::new(3, c, 2, 32)).collect();
        let mut hit = [false; 32];
        for (c, order) in orders.iter_mut().enumerate() {
            for _ in 0..2000 {
                let i = order.next_index();
                assert_eq!(i % 2, c);
                hit[i] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "every query is read");
    }
}
