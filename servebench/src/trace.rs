//! The traced run's three seams, all built from public interfaces:
//!
//! * [`TracedEngine`] wraps the engine behind the server's `ServedEngine`
//!   trait: the server→core boundary.
//! * [`TracedModel`] is a two-level `GnnModel` wrapper served as
//!   `dyn GnnModel`. The outer level overrides the four entry points that
//!   build a receptive-field ball (`predict_with`, `predict_many_with`,
//!   `margin_with`, `margin_many_removed_with`) and delegates them to the
//!   inner level, which keeps the trait defaults and overrides only `forward`
//!   and `forward_into`. So an outer span minus its inner spans is the ball
//!   build plus feature gather (`graph::localize`), and an inner span is the
//!   kernels (`gnn` + `linalg`). `Gcn` overrides only `forward` and
//!   `forward_into`, so the wrapped model runs the same code on the same
//!   inputs as the bare one and its answers are bit-identical.
//! * The `http`/`wire` replay lives in `layers.rs`: it runs after the timed
//!   window on the run's own request and response bytes.
//!
//! Spans are kept in memory and written out when the run ends.

use rcw_core::{
    BudgetExceeded, DisturbReport, EngineSnapshot, GenerationResult, SessionBudget, WitnessEngine,
};
use rcw_gnn::{ForwardScratch, GnnModel, KernelScratch};
use rcw_graph::{Disturbance, ForwardCtx, GraphView, NodeId};
use rcw_linalg::Matrix;
use rcw_server::ServedEngine;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds from the process-wide trace epoch to `t`. Client records and
/// server-side spans share this one clock.
pub fn ns(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Nanoseconds from the trace epoch to now.
pub fn now_ns() -> u64 {
    ns(Instant::now())
}

/// Span names. Engine spans carry the query key they served.
pub const ENGINE_GENERATE: &str = "engine.generate";
pub const ENGINE_BATCH: &str = "engine.batch";
pub const ENGINE_DISTURB: &str = "engine.disturb";
pub const MODEL_CALL: &str = "model.call";
pub const GNN_FORWARD: &str = "gnn.forward";
pub const CLIENT: &str = "client";

/// Key of engine spans that serve no known query (disturb sweeps).
pub const NO_KEY: u64 = u64::MAX;
/// `Span::request` of a span no client request owns.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Engine spans: the served query's key ([`NO_KEY`] for sweeps).
    pub key: u64,
    /// The client request the span served, once attributed.
    pub request: u64,
    /// `engine.generate` inside a batch: when this query's share of the
    /// batch began (model spans from then on belong to it).
    pub segment: u64,
    /// `gnn.forward`: compute-graph rows.
    pub rows: u32,
    /// `gnn.forward`: floating-point operations, estimated from tensor sizes.
    pub flops: f64,
    /// `gnn.forward`: bytes moved, estimated from tensor sizes.
    pub bytes: f64,
}

impl Span {
    fn new(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            key: NO_KEY,
            request: NO_REQUEST,
            segment: start,
            rows: 0,
            flops: 0.0,
            bytes: 0.0,
        }
    }

    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// (current engine span, current outer model span) on this thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// In-memory span store plus the batch counters of the engine seam.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    keys: HashMap<Vec<NodeId>, u64>,
    batch_calls: AtomicU64,
    batch_queries: AtomicU64,
}

impl Tracer {
    /// A tracer that tags engine spans with the index of each known query.
    pub fn new(queries: &[&[NodeId]]) -> Tracer {
        Tracer {
            keys: queries
                .iter()
                .enumerate()
                .map(|(i, q)| (q.to_vec(), i as u64))
                .collect(),
            next_id: AtomicU64::new(1),
            ..Tracer::default()
        }
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn key(&self, nodes: &[NodeId]) -> u64 {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        self.keys.get(&sorted).copied().unwrap_or(NO_KEY)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Empties the store and the batch counters (between run halves).
    pub fn reset(&self) {
        self.spans.lock().expect("span store poisoned").clear();
        self.batch_calls.store(0, Ordering::Relaxed);
        self.batch_queries.store(0, Ordering::Relaxed);
    }

    /// Takes every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// `(generate_batch_with calls, queries in them)`.
    pub fn batches(&self) -> (u64, u64) {
        (
            self.batch_calls.load(Ordering::Relaxed),
            self.batch_queries.load(Ordering::Relaxed),
        )
    }

    /// Runs `f` as engine span `name`, parenting the model spans it causes.
    fn engine_span<R>(&self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let id = self.id();
        let saved = CONTEXT.with(|c| c.replace((id, 0)));
        let start = now_ns();
        let out = f();
        let mut span = Span::new(id, 0, name, start, now_ns());
        span.key = key;
        CONTEXT.with(|c| c.set(saved));
        self.push(span);
        out
    }
}

/// Writes spans as JSON lines: `{"id","parent","name","start_ns","end_ns",
/// "request"}` (`request` is null for a span no request owns) plus
/// `rows`/`flops`/`bytes` on kernel spans.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":",
            s.id, s.parent, s.name, s.start, s.end
        )?;
        if s.request == NO_REQUEST {
            write!(out, "null")?;
        } else {
            write!(out, "{}", s.request)?;
        }
        if s.name == GNN_FORWARD {
            write!(
                out,
                ",\"rows\":{},\"flops\":{},\"bytes\":{}",
                s.rows, s.flops, s.bytes
            )?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

/// The server→core seam: the engine behind `ServedEngine`, with one span
/// per engine call (per query inside a batch).
pub struct TracedEngine<'m> {
    engine: WitnessEngine<'m, dyn GnnModel + 'm>,
    tracer: &'m Tracer,
}

impl<'m> TracedEngine<'m> {
    pub fn new(engine: WitnessEngine<'m, dyn GnnModel + 'm>, tracer: &'m Tracer) -> Self {
        TracedEngine { engine, tracer }
    }

    /// The wrapped engine, for in-process counters.
    pub fn engine(&self) -> &WitnessEngine<'m, dyn GnnModel + 'm> {
        &self.engine
    }
}

impl ServedEngine for TracedEngine<'_> {
    fn generate_with_budget(
        &self,
        test_nodes: &[usize],
        budget: &SessionBudget,
    ) -> Result<GenerationResult, BudgetExceeded> {
        let key = self.tracer.key(test_nodes);
        self.tracer.engine_span(ENGINE_GENERATE, key, || {
            self.engine.generate_with_budget(test_nodes, budget)
        })
    }

    fn generate_batch_with(
        &self,
        queries: &[Vec<usize>],
        budgets: &[SessionBudget],
        emit: &mut dyn FnMut(usize, Result<GenerationResult, BudgetExceeded>),
    ) {
        let tracer = self.tracer;
        tracer.batch_calls.fetch_add(1, Ordering::Relaxed);
        tracer
            .batch_queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let batch = tracer.id();
        let saved = CONTEXT.with(|c| c.replace((batch, 0)));
        let start = now_ns();
        let mut segment = start;
        self.engine
            .generate_batch_with(queries, budgets, &mut |i, result| {
                let mut span = Span::new(tracer.id(), batch, ENGINE_GENERATE, start, now_ns());
                span.key = tracer.key(&queries[i]);
                span.segment = segment;
                tracer.push(span);
                emit(i, result);
                segment = now_ns();
            });
        CONTEXT.with(|c| c.set(saved));
        tracer.push(Span::new(batch, 0, ENGINE_BATCH, start, now_ns()));
    }

    fn disturb(&self, disturbances: &[Disturbance]) -> DisturbReport {
        self.tracer
            .engine_span(ENGINE_DISTURB, NO_KEY, || self.engine.disturb(disturbances))
    }

    fn snapshot(&self) -> EngineSnapshot {
        self.engine.snapshot()
    }

    fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    fn num_nodes(&self) -> usize {
        self.engine.graph().num_nodes()
    }
}

/// The inner model level: the kernels. Keeps every trait default except
/// `forward`/`forward_into`, which it times.
pub struct Kernels<'m> {
    model: &'m dyn GnnModel,
    tracer: &'m Tracer,
    /// Layer widths `[input, hidden.., classes]`, for the operation counts.
    dims: Vec<usize>,
}

impl Kernels<'_> {
    /// Operations and bytes of one GCN forward pass, estimated from tensor
    /// sizes: per layer, the rows the schedule computes times the layer's
    /// widths, with SpMM nonzeros taken as those rows times the compute
    /// graph's mean degree plus the self loop. Values are 8-byte floats and
    /// indices 8-byte words.
    fn cost(&self, ctx: &ForwardCtx<'_>) -> (f64, f64) {
        let n = ctx.num_nodes().max(1) as f64;
        let per_row_nnz = ctx.csr().num_arcs() as f64 / n + 1.0;
        let layers = self.dims.len() - 1;
        let (mut flops, mut bytes) = (0.0, 0.0);
        for i in 0..layers {
            let rows = ctx
                .active_rows(layers - 1 - i)
                .map_or(n, |r| r.len() as f64);
            let (din, dout) = (self.dims[i] as f64, self.dims[i + 1] as f64);
            let nnz = rows * per_row_nnz;
            flops += 2.0 * nnz * din + 2.0 * rows * din * dout;
            bytes += 8.0 * (nnz * din + 2.0 * rows * din + din * dout + rows * dout + nnz);
        }
        (flops, bytes)
    }

    fn record(&self, ctx: &ForwardCtx<'_>, start: u64) {
        let (engine, outer) = CONTEXT.with(Cell::get);
        let parent = if outer != 0 { outer } else { engine };
        let mut span = Span::new(self.tracer.id(), parent, GNN_FORWARD, start, now_ns());
        span.rows = ctx.num_nodes() as u32;
        (span.flops, span.bytes) = self.cost(ctx);
        self.tracer.push(span);
    }
}

impl GnnModel for Kernels<'_> {
    fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    fn num_layers(&self) -> usize {
        self.model.num_layers()
    }

    fn feature_dim(&self) -> usize {
        self.model.feature_dim()
    }

    fn receptive_hops(&self) -> usize {
        self.model.receptive_hops()
    }

    fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix {
        let start = now_ns();
        let z = self.model.forward(ctx, x);
        self.record(ctx, start);
        z
    }

    fn forward_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        let start = now_ns();
        let z = self.model.forward_into(ctx, x, scratch);
        self.record(ctx, start);
        z
    }
}

/// The outer model level: one span per ball-building entry point.
pub struct TracedModel<'m> {
    inner: Kernels<'m>,
}

impl<'m> TracedModel<'m> {
    /// Wraps `model`, whose layer widths are `dims`.
    pub fn new(model: &'m dyn GnnModel, dims: Vec<usize>, tracer: &'m Tracer) -> Self {
        assert_eq!(
            dims.len(),
            model.num_layers() + 1,
            "one width per layer edge"
        );
        TracedModel {
            inner: Kernels {
                model,
                tracer,
                dims,
            },
        }
    }

    fn call<R>(&self, f: impl FnOnce(&Kernels<'m>) -> R) -> R {
        let tracer = self.inner.tracer;
        let id = tracer.id();
        let (engine, saved_outer) = CONTEXT.with(|c| c.replace((c.get().0, id)));
        let start = now_ns();
        let out = f(&self.inner);
        let span = Span::new(id, engine, MODEL_CALL, start, now_ns());
        CONTEXT.with(|c| c.set((engine, saved_outer)));
        tracer.push(span);
        out
    }
}

impl GnnModel for TracedModel<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn num_layers(&self) -> usize {
        self.inner.num_layers()
    }

    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn receptive_hops(&self) -> usize {
        self.inner.receptive_hops()
    }

    fn forward(&self, ctx: &ForwardCtx<'_>, x: &Matrix) -> Matrix {
        self.inner.forward(ctx, x)
    }

    fn forward_into<'s>(
        &self,
        ctx: &ForwardCtx<'_>,
        x: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.inner.forward_into(ctx, x, scratch)
    }

    fn predict_with(
        &self,
        v: NodeId,
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> Option<usize> {
        self.call(|inner| inner.predict_with(v, view, scratch))
    }

    fn predict_many_with(
        &self,
        centers: &[NodeId],
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> Option<Vec<usize>> {
        self.call(|inner| inner.predict_many_with(centers, view, scratch))
    }

    fn margin_with(
        &self,
        v: NodeId,
        label: usize,
        view: &GraphView<'_>,
        scratch: &mut KernelScratch,
    ) -> f64 {
        self.call(|inner| inner.margin_with(v, label, view, scratch))
    }

    fn margin_many_removed_with(
        &self,
        v: NodeId,
        label: usize,
        base: &GraphView<'_>,
        removals: &[(NodeId, NodeId)],
        scratch: &mut KernelScratch,
    ) -> Vec<f64> {
        self.call(|inner| inner.margin_many_removed_with(v, label, base, removals, scratch))
    }
}
