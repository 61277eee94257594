//! Offline replay of one served request, stage by stage, through each
//! layer's public functions: `SubgraphScratch::grow` (graph),
//! `truncated_costs_into` (markov), the `TopKCollector` step and
//! `RecommendOptions::finalize_topk` (core). The replayed list must equal
//! the served one exactly, which proves the stage timings describe the
//! computation that was served.

use crate::check::{reference_options, same_list};
use crate::layers::ReqView;
use crate::models::{BenchModel, Walk};
use longtail_core::{RecommendOptions, RerankIndex, ScoredItem, ScoringContext, TopKCollector};
use longtail_graph::{BipartiteGraph, EdgeDelta, GraphView, OverlayGraph, SubgraphScratch};
use longtail_markov::{truncated_costs_into, CostModel, DpBuffers, SliceCost, UnitCost};
use std::time::{Duration, Instant};

/// Stage timings and work counts of one replayed request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub grow: Duration,
    pub dp: Duration,
    pub topk: Duration,
    pub rerank: Duration,
    pub nodes: usize,
    pub nnz: usize,
    pub iterations: usize,
}

impl Stages {
    pub fn total(&self) -> Duration {
        self.grow + self.dp + self.topk + self.rerank
    }
}

/// Reusable replay buffers (one per replaying thread).
#[derive(Default)]
pub struct Replayer {
    scratch: SubgraphScratch,
    bufs: DpBuffers,
    seeds: Vec<usize>,
    absorbing: Vec<bool>,
    costs: Vec<f64>,
    rated: Vec<u32>,
    topk: TopKCollector,
    ctx: ScoringContext,
}

impl Replayer {
    /// Replay `model`'s answer for `user` (over the base graph, or the
    /// base + `delta` overlay), running the DP for exactly `iterations`
    /// sweeps — the iteration count the served response reported. `graph`
    /// is the model's training graph.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        model: &BenchModel,
        graph: &BipartiteGraph,
        delta: Option<&EdgeDelta>,
        user: u32,
        opts: &RecommendOptions<'_>,
        iterations: usize,
        out: &mut Vec<ScoredItem>,
    ) -> Stages {
        match delta.filter(|d| !d.is_empty()) {
            None => self.replay_view(model, graph, user, opts, iterations, out, |u| {
                base_entropy(model, u)
            }),
            Some(delta) => {
                let overlay = OverlayGraph::new(graph, delta);
                self.replay_view(model, &overlay, user, opts, iterations, out, |u| {
                    overlay_entropy(model, &overlay, u)
                })
            }
        }
    }

    /// Time `SubgraphScratch::grow` alone for `user`'s seeds over `view` —
    /// the overlay-versus-base comparison of the ingest workload.
    pub fn grow_only<G: GraphView>(&mut self, model: &BenchModel, view: &G, user: u32) -> Duration {
        self.seed(model, view, user);
        let started = Instant::now();
        self.scratch.grow(view, &self.seeds, model.config.max_items);
        started.elapsed()
    }

    fn seed<G: GraphView>(&mut self, model: &BenchModel, view: &G, user: u32) {
        self.rated.clear();
        view.for_each_rated(user, |i, _| self.rated.push(i));
        self.seeds.clear();
        match model.walk {
            Walk::Ht => self.seeds.push(view.user_node(user)),
            Walk::At | Walk::Ac(_) => self
                .seeds
                .extend(self.rated.iter().map(|&i| view.item_node(i))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_view<G: GraphView>(
        &mut self,
        model: &BenchModel,
        view: &G,
        user: u32,
        opts: &RecommendOptions<'_>,
        iterations: usize,
        out: &mut Vec<ScoredItem>,
        entropy: impl Fn(u32) -> f64,
    ) -> Stages {
        let mut stages = Stages::default();
        self.seed(model, view, user);
        let fetch = opts.fetch(crate::models::K);
        self.topk.reset(fetch);
        // The walk runs only when the query has a non-trivial subgraph: HT
        // needs the user to reach something, AT/AC need a rated set.
        let walks = !self.seeds.is_empty();
        if walks {
            let started = Instant::now();
            self.scratch.grow(view, &self.seeds, model.config.max_items);
            stages.grow = started.elapsed();
            stages.nodes = self.scratch.n_nodes();
            stages.nnz = self.scratch.kernel().nnz();
        }
        let walks = walks && !(matches!(model.walk, Walk::Ht) && self.scratch.n_nodes() == 1);
        if walks {
            self.absorbing.clear();
            self.absorbing.resize(self.scratch.n_nodes(), false);
            for &s in &self.seeds {
                let local = self.scratch.local_id(s).expect("seed admitted");
                self.absorbing[local as usize] = true;
            }
            let n_users = view.n_users();
            let slice;
            let cost: &dyn CostModel = match model.walk {
                Walk::Ht | Walk::At => &UnitCost,
                Walk::Ac(_) => {
                    let item_cost = model.item_entry_cost();
                    self.costs.clear();
                    self.costs
                        .extend(self.scratch.global_ids().iter().map(|&g| {
                            if g < n_users {
                                entropy(g as u32)
                            } else {
                                item_cost
                            }
                        }));
                    slice = SliceCost(&self.costs);
                    &slice
                }
            };
            let started = Instant::now();
            truncated_costs_into(
                self.scratch.kernel(),
                &self.absorbing,
                cost,
                iterations,
                &mut self.bufs,
            );
            stages.dp = started.elapsed();
            stages.iterations = iterations;

            let started = Instant::now();
            let extra = opts.exclude.as_slice();
            for (local, &global) in self.scratch.global_ids().iter().enumerate() {
                if global < n_users {
                    continue;
                }
                let item = (global - n_users) as u32;
                if self.rated.binary_search(&item).is_ok() || extra.binary_search(&item).is_ok() {
                    continue;
                }
                if let Some(v) = self.bufs.finite_cost(local as u32) {
                    self.topk.push(item, -v);
                }
            }
            self.topk.drain_sorted_into(out);
            stages.topk = started.elapsed();
        } else {
            self.topk.drain_sorted_into(out);
        }
        let started = Instant::now();
        opts.finalize_topk(crate::models::K, &mut self.ctx, out);
        stages.rerank = started.elapsed();
        stages
    }
}

/// Replay about `target` evenly spaced served requests, each over the
/// model and training graph `model_of` gives for it and with the options
/// it was served under; returns the replays by request index and whether
/// every replayed list equals the served one exactly (each mismatch is
/// printed).
pub fn replay_sample<'m>(
    reqs: &[ReqView<'_>],
    model_of: impl Fn(usize) -> (&'m BenchModel, &'m BipartiteGraph),
    index: Option<&RerankIndex>,
    target: usize,
) -> (Vec<(usize, Stages)>, bool) {
    let served: Vec<usize> = (0..reqs.len())
        .filter(|&i| reqs[i].response.is_some())
        .collect();
    let stride = (served.len() / target.max(1)).max(1);
    let mut replayer = Replayer::default();
    let mut out = Vec::new();
    let mut replays = Vec::new();
    let mut identical = true;
    for &i in served.iter().step_by(stride) {
        let resp = reqs[i].response.expect("sampled from served requests");
        let opts = reference_options(resp.provenance.is_some(), index);
        let (model, graph) = model_of(i);
        let stages = replayer.replay(
            model,
            graph,
            None,
            reqs[i].user,
            &opts,
            resp.telemetry.iterations_run as usize,
            &mut out,
        );
        if !same_list(&out, &resp.items) {
            println!(
                "REPLAY MISMATCH request {i} {} user {}",
                reqs[i].model, reqs[i].user
            );
            identical = false;
        }
        replays.push((i, stages));
    }
    println!(
        "replayed {} requests, lists identical: {identical}",
        replays.len()
    );
    (replays, identical)
}

fn base_entropy(model: &BenchModel, user: u32) -> f64 {
    match &model.walk {
        Walk::Ac(ac) => ac.user_entropies()[user as usize],
        Walk::Ht | Walk::At => 0.0,
    }
}

/// AC entry cost of `user` over a base + delta overlay, as a model rebuilt
/// on the union computes it: AC1 recomputes Eq. 10 for users the delta
/// touches, AC2 keeps its LDA entropies (mean entropy for users the model
/// has never seen).
fn overlay_entropy(model: &BenchModel, overlay: &OverlayGraph<'_>, user: u32) -> f64 {
    let Walk::Ac(ac) = &model.walk else {
        return 0.0;
    };
    let entropies = ac.user_entropies();
    let in_base = (user as usize) < entropies.len();
    match ac.entropy_source() {
        longtail_core::EntropySource::ItemBased => {
            if in_base && !overlay.delta().touches_user(user) {
                return entropies[user as usize];
            }
            let mut total = 0.0;
            overlay.for_each_rated(user, |_, w| total += w);
            if total <= 0.0 {
                return 0.0;
            }
            let mut h = 0.0;
            overlay.for_each_rated(user, |_, w| {
                if w > 0.0 {
                    let p = w / total;
                    h += -p * p.ln();
                }
            });
            h
        }
        longtail_core::EntropySource::TopicBased => {
            if in_base {
                entropies[user as usize]
            } else if entropies.is_empty() {
                0.0
            } else {
                entropies.iter().sum::<f64>() / entropies.len() as f64
            }
        }
    }
}
