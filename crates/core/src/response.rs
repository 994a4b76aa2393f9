//! Best responses: exact (branch-and-bound) and greedy single moves.
//!
//! Computing an exact best response is NP-hard in every variant of the
//! game (Corollary 1, Theorems 13 and 16), so the exact solver here is an
//! exponential branch-and-bound over candidate edge subsets, effective for
//! the instance sizes of the experiments (n ≲ 20) and for the structured
//! reduction gadgets where the pruning bound collapses the search space.
//!
//! # Entry points
//!
//! * One-shot wrappers that build the network and price the agent's
//!   current strategy themselves: [`exact_best_response`],
//!   [`best_greedy_move`], [`best_add_move`] and [`best_move_among`].
//! * The fast paths the dynamics engine runs: the exact search
//!   [`BrSearch`], whose buffers a caller can keep across searches, and
//!   the speculative move scan [`best_move_among_speculative`] over a
//!   warm distance vector.
//! * Oracles, kept only as checkers and bench baselines:
//!   [`exact_best_response_given_current`] (the optimistic-network
//!   search below), [`best_move_among_given_current`] (one masked
//!   Dijkstra per move) and [`exact_best_response_reference`] (the
//!   historical leaf-pricing search).
//!
//! # The facility-location form
//!
//! Theorem 3 reduces an agent's strategy problem to uncapacitated
//! facility location, and the exact search runs on that form. Take agent
//! `u` with base graph `B` (the network minus `u`'s sole-owned edges).
//! Every shortest path from `u` either stays in `B`, or starts with one
//! bought edge `(u, v)` and never comes back to `u` (a return to `u`
//! restarts the path at a prefix sum `≥ 0`, and float addition is
//! monotone). So for a bought set `S` the distance vector is
//!
//! ```text
//! D_S = min(d0, min_{v ∈ S} c_v)      element by element,
//! ```
//!
//! where `d0` is the SSSP from `u` in `B` and `c_v` the SSSP over `B − u`
//! with its start seeded at `dist[v] = w(u, v)` — a run from `u` whose only
//! way out is the extra edge `(u, v)`, so the seed is `0 + w`. The seeded
//! run adds weights left to right, as any relaxation from `u` does, and
//! every exact SSSP takes the minimum over the same path prefix sums, so
//! `D_S` is bitwise the vector a from-scratch Dijkstra on `B ∪ star(S)`
//! produces (see `gncg_graph::csr`).
//!
//! [`BrSearch`] builds `d0` and the `n − 1` seeded vectors fresh for every
//! search (one CSR snapshot of `B − u`, then `n` runs), then walks the
//! include/exclude tree over the candidates sorted by ascending weight.
//! Including a candidate writes `min(parent, c_v)` into a stack of
//! vectors indexed by depth, so the search has no heap and no undo log,
//! and every set is priced the moment its last edge is included: its
//! distance cost is the index-order sum of its row.
//!
//! # Why the bound is exact
//!
//! A node at depth `idx` has committed `S ⊆ candidates[..idx]` and may
//! still add only a non-empty `T ⊆ R = candidates[idx..]` (its own set
//! `S` was priced when its last edge was included). The bound row
//! `via[idx][x] = min_{i ≥ idx} c_i[x]` gives, element by element,
//!
//! ```text
//! D_{S∪T} = min(D_S, min_{v ∈ T} c_v) ≥ min(D_S, via[idx])
//! ```
//!
//! with no rounding slack: `min` is exact and the index-order sum is
//! monotone in every term. So `Σ_x min(D_S[x], via[idx][x])` is an
//! admissible distance lower bound. It is also tighter than a bound over
//! the optimistic network `B* = B ∪ star(all candidates)`, which lets a
//! completion route back through `u`'s star to candidates the search has
//! already excluded.
//!
//! **The edge-cost term.** Each unpriced subset below the node buys at
//! least one more candidate from `R`. Candidates are sorted by ascending
//! weight, so that purchase costs at least `α · w(u, R[0]) = α ·
//! cand_w[idx]`, and the bound adds it to the committed edge sum. In the
//! DFS's own summation order this term is exact too: adding the cheapest
//! remaining weight, then any further non-negative weights, never rounds
//! below the committed sum plus that cheapest weight. A leaf (`idx ==
//! len`) has nothing unpriced below it: its bound is `+∞`. When
//! `cand_w[idx] = ∞` (the `{1, ∞}` hosts), every unpriced subset holds an
//! ∞ edge and the `+∞` bound prunes them all.
//!
//! # Why the pricing screen is exact
//!
//! A newly included set is priced twice at most. The *screened* price
//! `α · s + Σ D` uses the edge sum `s` the DFS already carries, summed in
//! DFS order; the *exact* price re-sums the same weights in ascending
//! node-id order, the order [`candidate_cost`] uses, and only that price
//! may become an incumbent. The two differ only by summation order. For
//! `k ≤ n − 1` non-negative weights, two recursive sums of them differ by
//! at most `2γ_{k−1} · s` (with `γ_m = m·u / (1 − m·u)` and unit
//! roundoff `u = ε/2`), and the multiply and the add of `Σ D` round once
//! each. So `|screened − exact| ≤ (k + 1) · ε · exact` to first order,
//! which the slack `2·n·ε·|screened|` covers with room to spare. The
//! exact re-sum therefore runs only when `screened − slack` would
//! strictly beat the incumbent: a skipped set has `exact ≥ screened −
//! slack ≥ incumbent − EPS`, so it could never have replaced the
//! incumbent. An ∞ screened price means an ∞ edge or an unreached node,
//! which is ∞ in either order and never improves. A finite price against
//! an ∞ incumbent (a disconnected agent) always takes the exact path.
//!
//! Both the bound and the screen skip only subsets that cannot replace
//! the incumbent, so the sequence of incumbent updates — and the reported
//! strategy and cost bits — are those of an exhaustive pricing in the
//! same visit order, up to the sub-`EPS` near-ties discussed below
//! (proptested against brute force on every registered host family).
//! The optimistic-network search [`exact_best_response_given_current`]
//! visits subsets in the same order under a weaker bound, so the two
//! agree bit for bit; debug builds assert that on every [`BrSearch`].
//!
//! Costs are **bit-identical** to the reference engine on any instance
//! whose distinct candidate subsets are not tied within
//! [`EPS`](gncg_graph::EPS): the stacked vector equals a from-scratch
//! Dijkstra's exactly, and both sum it in index order. On adversarial
//! sub-`EPS` near-ties the engines may legitimately settle on either
//! member of the tie (they visit subsets in different orders and both
//! accept/prune with `EPS` tolerance), so reported costs can differ by up
//! to `EPS` — the paper's constructions and the random metrics of the
//! equivalence suites clear the tolerance by orders of magnitude, which
//! is what licenses the exact `assert_eq!` there.

use std::collections::BTreeSet;

use gncg_graph::{
    strictly_less, AdjacencyList, Csr, DijkstraScratch, DynamicSssp, MaskedEdges, NodeId,
};

use crate::cost::{agent_cost_in, base_graph_from, base_graph_without, candidate_cost};
use crate::{Game, Move, Profile};

/// Result of a best-response computation.
#[derive(Clone, Debug)]
pub struct BestResponse {
    /// The optimal strategy found.
    pub strategy: BTreeSet<NodeId>,
    /// Its cost for the agent.
    pub cost: f64,
    /// The agent's current cost before deviating.
    pub current_cost: f64,
    /// Number of candidate subsets fully evaluated (diagnostic).
    pub evaluated: usize,
    /// Number of branch-and-bound nodes visited, pruned ones included
    /// (diagnostic; kept out of every JSONL line). The reference engine
    /// does not count its nodes and reports 0.
    pub nodes: usize,
}

impl BestResponse {
    /// Whether the best response strictly improves on the current strategy.
    pub fn improves(&self) -> bool {
        strictly_less(self.cost, self.current_cost)
    }
}

/// The include/exclude path and the incumbent of one branch of a search,
/// shared by [`BrSearch`] and its oracle.
#[derive(Debug, Default)]
struct Tally {
    /// The candidates included on the current DFS path, in include order.
    chosen: Vec<NodeId>,
    /// Membership bitmap of `chosen` (indexed by node id): the exact price
    /// sums edge weights in ascending id order, matching the `BTreeSet`
    /// iteration order of [`candidate_cost`] bit for bit.
    in_set: Vec<bool>,
    best_cost: f64,
    best_set: BTreeSet<NodeId>,
    evaluated: usize,
    nodes: usize,
}

impl Tally {
    /// Re-arms the tally for one search: nothing chosen, the incumbent
    /// seeded from the agent's current strategy and cost.
    fn reset(&mut self, n: usize, current: f64, current_set: &BTreeSet<NodeId>) {
        self.chosen.clear();
        self.in_set.clear();
        self.in_set.resize(n, false);
        self.best_cost = current;
        self.best_set.clone_from(current_set);
        self.evaluated = 0;
        self.nodes = 0;
    }

    fn include(&mut self, v: NodeId) {
        self.chosen.push(v);
        self.in_set[v as usize] = true;
    }

    fn exclude_last(&mut self) {
        let v = self.chosen.pop().expect("exclude after an include");
        self.in_set[v as usize] = false;
    }

    /// Prices the chosen set — distance cost `dist_sum`, edge sum
    /// `edge_w_sum` in DFS order — and tightens the incumbent. The DFS-order
    /// price screens the set first; only a set that may beat the incumbent
    /// gets its edge sum re-accumulated in ascending node-id order, so
    /// totals match [`candidate_cost`] exactly (f64 addition is
    /// order-sensitive).
    fn price(&mut self, game: &Game, agent: NodeId, edge_w_sum: f64, dist_sum: f64) {
        self.evaluated += 1;
        let screened = game.alpha() * edge_w_sum + dist_sum;
        if !screen_may_improve(screened, self.best_cost, self.in_set.len()) {
            return;
        }
        let mut edge_sum = 0.0;
        for (v, &inside) in self.in_set.iter().enumerate() {
            if inside {
                edge_sum += game.w(agent, v as NodeId);
            }
        }
        let cost = game.alpha() * edge_sum + dist_sum;
        if strictly_less(cost, self.best_cost) {
            self.best_cost = cost;
            self.best_set = self.chosen.iter().copied().collect();
        }
    }

    fn result(&mut self, current: f64) -> BestResponse {
        BestResponse {
            strategy: std::mem::take(&mut self.best_set),
            cost: self.best_cost,
            current_cost: current,
            evaluated: self.evaluated,
            nodes: self.nodes,
        }
    }
}

/// The pricing screen: whether a set whose cost, priced with its edge
/// sum in DFS order, is `screened` could still strictly beat
/// `incumbent` once re-priced exactly in ascending-id order. The two
/// prices of one set differ only by summation order, which the slack
/// covers (see the module docs); the screen is therefore exact —
/// `false` only for sets that cannot replace the incumbent.
#[inline]
fn screen_may_improve(screened: f64, incumbent: f64, n: usize) -> bool {
    if screened == f64::INFINITY {
        // An ∞ edge or an unreached node prices ∞ in either order.
        return false;
    }
    // A finite price always beats an ∞ incumbent, so a disconnected
    // agent's first finite set takes the exact path.
    let slack = 2.0 * n as f64 * f64::EPSILON * screened.abs();
    strictly_less(screened - slack, incumbent)
}

/// Fills `candidates` with every node but `agent`, sorted by ascending
/// host weight from the agent (a stable sort: ties keep id order), and
/// `cand_w` with those weights — the visit order of both searches.
fn sort_candidates(
    game: &Game,
    agent: NodeId,
    candidates: &mut Vec<NodeId>,
    cand_w: &mut Vec<f64>,
) {
    candidates.clear();
    candidates.extend((0..game.n() as NodeId).filter(|&v| v != agent));
    candidates.sort_by(|&a, &b| game.w(agent, a).total_cmp(&game.w(agent, b)));
    cand_w.clear();
    cand_w.extend(candidates.iter().map(|&v| game.w(agent, v)));
}

/// The lower bound on every subset under a DFS node at candidate `idx`
/// that the search has not priced yet: the committed edge sum plus the
/// cheapest remaining weight, times `α`, plus the node's distance bound
/// `dist_lb` ([`dist_bound`]). `+∞` at a leaf, where nothing is left to
/// price.
#[inline]
fn lower_bound(game: &Game, cand_w: &[f64], idx: usize, edge_w_sum: f64, dist_lb: f64) -> f64 {
    match cand_w.get(idx) {
        None => f64::INFINITY,
        Some(&w) => game.alpha() * (edge_w_sum + w) + dist_lb,
    }
}

/// `Σ_x min(dist[x], via[idx·n + x])` in index order: the distance part
/// of the bound of a node with vector `dist` at candidate `idx`.
#[inline]
fn dist_bound(dist: &[f64], via: &[f64], idx: usize) -> f64 {
    let n = dist.len();
    let mut lb = 0.0;
    for (&d, &v) in dist.iter().zip(&via[idx * n..(idx + 1) * n]) {
        lb += d.min(v);
    }
    lb
}

/// Index-order sum of a distance vector — the order a Dijkstra vector is
/// summed in everywhere, so totals agree bitwise.
fn row_sum(row: &[f64]) -> f64 {
    let mut s = 0.0;
    for &d in row {
        s += d;
    }
    s
}

/// The exact best-response search in its facility-location form (see the
/// module docs): `d0`, the seeded vectors `c_v` and their suffix-min
/// bound rows are rebuilt for every search, and the DFS stacks
/// `min(parent, c_v)` vectors by depth. The struct only keeps the buffers,
/// so a caller that holds one across searches (the dynamics engine keeps
/// one per agent) allocates nothing after the first.
///
/// Under `debug_assertions` every search is checked against
/// [`exact_best_response_given_current`]: the same strategy and the same
/// cost bits.
#[derive(Debug)]
pub struct BrSearch {
    tables: BrTables,
    worker: BrWorker,
    /// `B − u`: the network with every edge at the agent left out.
    csr: Csr,
    /// Runs on the binary heap, with no weight-class hint: on graphs
    /// this small a bucket ring walks more empty buckets than the heap
    /// does work (a table build on the `br-exact` hosts took 26 µs with
    /// the hint, 17 µs without).
    dijkstra: DijkstraScratch,
    /// The agent's base-graph edges, the seeds of the `d0` run.
    seeds: Vec<(NodeId, NodeId, f64)>,
}

/// The read-only tables of one search.
#[derive(Debug, Default)]
struct BrTables {
    agent: NodeId,
    n: usize,
    /// Candidates sorted by increasing host weight from the agent.
    candidates: Vec<NodeId>,
    /// `w(agent, candidates[i])`, parallel to `candidates`.
    cand_w: Vec<f64>,
    /// Distances from the agent in its base graph.
    d0: Vec<f64>,
    /// `reach[i·n + x] = c_{candidates[i]}[x]`: the distance from the agent
    /// to `x` over the bought edge to `candidates[i]`, then `B − u`.
    reach: Vec<f64>,
    /// Suffix minima of `reach`: `via[i·n + x] = min_{j ≥ i} reach[j·n + x]`,
    /// with row `len` all-∞ (no candidates left).
    via: Vec<f64>,
}

/// The mutable state of the search: the depth stack and the incumbent.
#[derive(Debug, Default)]
struct BrWorker {
    /// Distance vectors by DFS depth: row `k` belongs to the set of the
    /// first `k` includes on the current path; row 0 is `d0`.
    stack: Vec<f64>,
    tally: Tally,
}

impl Default for BrSearch {
    fn default() -> Self {
        BrSearch::new()
    }
}

impl BrSearch {
    /// Empty buffers; they grow on the first search.
    pub fn new() -> Self {
        BrSearch {
            tables: BrTables::default(),
            worker: BrWorker::default(),
            csr: Csr::from_adjacency(&AdjacencyList::default()),
            dijkstra: DijkstraScratch::new(),
            seeds: Vec::new(),
        }
    }

    /// Bytes held by the search's tables and depth stack (capacity-based).
    pub fn resident_bytes(&self) -> usize {
        let t = &self.tables;
        (t.d0.capacity() + t.reach.capacity() + t.via.capacity() + self.worker.stack.capacity())
            * std::mem::size_of::<f64>()
    }

    /// The exact best response of `agent` in the built network `network`
    /// of `profile`. `current` must equal `agent_cost_in(game, profile,
    /// network, agent).total()` exactly: it seeds the incumbent, so a
    /// too-low value could prune the true optimum.
    pub fn best_response(
        &mut self,
        game: &Game,
        profile: &Profile,
        network: &AdjacencyList,
        agent: NodeId,
        current: f64,
    ) -> BestResponse {
        self.build(game, profile, network, agent);
        let (tables, worker) = (&self.tables, &mut self.worker);
        worker.reset(tables, current, profile.strategy(agent));
        // The empty set is the one subset with no include step: price it here.
        worker.tally.price(game, agent, 0.0, row_sum(&tables.d0));
        worker.dfs(
            game,
            tables,
            0,
            0,
            0.0,
            dist_bound(&tables.d0, &tables.via, 0),
        );
        let result = worker.tally.result(current);
        #[cfg(debug_assertions)]
        {
            let oracle = exact_best_response_given_current(game, profile, network, agent, current);
            assert_eq!(
                result.strategy, oracle.strategy,
                "best response of agent {agent} diverged from the optimistic-network oracle"
            );
            assert_eq!(
                result.cost.to_bits(),
                oracle.cost.to_bits(),
                "best-response cost of agent {agent} diverged from the optimistic-network oracle"
            );
        }
        result
    }

    /// Builds the tables of one search: the candidate order, a CSR
    /// snapshot of `B − u`, `d0` (seeded with the agent's base-graph
    /// edges), one seeded run per candidate, and the suffix-min rows.
    fn build(&mut self, game: &Game, profile: &Profile, network: &AdjacencyList, agent: NodeId) {
        let n = game.n();
        let t = &mut self.tables;
        (t.agent, t.n) = (agent, n);
        sort_candidates(game, agent, &mut t.candidates, &mut t.cand_w);
        self.csr.assign_without(network, agent);
        // The base graph keeps exactly the agent's edges that the other
        // endpoint bought (co-owned ones included).
        self.seeds.clear();
        self.seeds.extend(
            network
                .neighbors(agent)
                .iter()
                .filter(|&&(x, _)| profile.owns(x, agent))
                .map(|&(x, w)| (agent, x, w)),
        );
        self.dijkstra.run(&self.csr, agent, &self.seeds);
        t.d0.resize(n, f64::INFINITY);
        self.dijkstra.write_distances(&mut t.d0);
        let len = t.candidates.len();
        t.reach.resize(len * n, f64::INFINITY);
        for (i, (&v, &w)) in t.candidates.iter().zip(&t.cand_w).enumerate() {
            self.dijkstra.run(&self.csr, agent, &[(agent, v, w)]);
            self.dijkstra
                .write_distances(&mut t.reach[i * n..(i + 1) * n]);
        }
        t.via.clear();
        t.via.resize((len + 1) * n, f64::INFINITY);
        for i in (0..len).rev() {
            // Row `i` folds over row `i + 1`, laid out right behind it.
            let (row, next) = t.via[i * n..(i + 2) * n].split_at_mut(n);
            for ((slot, &c), &suffix) in row.iter_mut().zip(&t.reach[i * n..]).zip(&*next) {
                *slot = c.min(suffix);
            }
        }
    }
}

impl BrWorker {
    /// Re-arms the worker for one search: row 0 of the stack is `d0`, the
    /// incumbent is the agent's current strategy and cost.
    fn reset(&mut self, tables: &BrTables, current: f64, current_set: &BTreeSet<NodeId>) {
        let n = tables.n;
        self.stack
            .resize((tables.candidates.len() + 1) * n, f64::INFINITY);
        self.stack[..n].copy_from_slice(&tables.d0);
        self.tally.reset(n, current, current_set);
    }

    /// Includes `candidates[idx]` on top of the set at `depth`: row
    /// `depth + 1` becomes `min(row depth, c_v)`. One pass returns three
    /// index-order sums: the new set's distance cost, and the distance
    /// bounds ([`dist_bound`] at `idx + 1`) of the include child (the new
    /// row) and of the exclude child (the parent row). The three chains
    /// are independent, so the pass costs about as much as one sum.
    fn include(&mut self, tables: &BrTables, idx: usize, depth: usize) -> (f64, f64, f64) {
        let n = tables.n;
        let (done, rest) = self.stack.split_at_mut((depth + 1) * n);
        let (mut sum, mut inc_lb, mut exc_lb) = (0.0, 0.0, 0.0);
        for (((slot, &d), &c), &v) in rest[..n]
            .iter_mut()
            .zip(&done[depth * n..])
            .zip(&tables.reach[idx * n..(idx + 1) * n])
            .zip(&tables.via[(idx + 1) * n..(idx + 2) * n])
        {
            *slot = d.min(c);
            sum += *slot;
            inc_lb += slot.min(v);
            exc_lb += d.min(v);
        }
        self.tally.include(tables.candidates[idx]);
        (sum, inc_lb, exc_lb)
    }

    /// DFS over include/exclude decisions from `idx` onward. The chosen
    /// set at entry has `depth` edges and was already priced; its vector
    /// is row `depth` of the stack, and `dist_lb` its distance bound at
    /// `idx` (computed by the parent's include pass).
    fn dfs(
        &mut self,
        game: &Game,
        tables: &BrTables,
        idx: usize,
        depth: usize,
        edge_w_sum: f64,
        dist_lb: f64,
    ) {
        self.tally.nodes += 1;
        if lower_bound(game, &tables.cand_w, idx, edge_w_sum, dist_lb)
            >= self.tally.best_cost - gncg_graph::EPS
        {
            // No completion below this node can strictly beat the
            // incumbent; every subset under it is dominated. Leaves
            // always stop here (their bound is +∞).
            return;
        }
        let w = tables.cand_w[idx];
        // Branch 1: include the candidate, price the new set.
        let (dist_sum, inc_lb, exc_lb) = self.include(tables, idx, depth);
        self.tally
            .price(game, tables.agent, edge_w_sum + w, dist_sum);
        self.dfs(game, tables, idx + 1, depth + 1, edge_w_sum + w, inc_lb);
        self.tally.exclude_last();
        // Branch 2: exclude it.
        self.dfs(game, tables, idx + 1, depth, edge_w_sum, exc_lb);
    }
}

/// Exact best response of `agent` by depth-first branch-and-bound over
/// subsets of `V \ {agent}` ([`BrSearch`]; see the module docs). The
/// agent's *current* strategy seeds the incumbent, so the search also
/// certifies equilibria quickly.
pub fn exact_best_response(game: &Game, profile: &Profile, agent: NodeId) -> BestResponse {
    let network = profile.build_network(game);
    let current = agent_cost_in(game, profile, &network, agent).total();
    BrSearch::new().best_response(game, profile, &network, agent, current)
}

/// The exact best response of `agent`: [`exact_best_response`] itself.
/// The search is not split across the rayon pool because a split of the
/// include/exclude tree lost to the sequential search at n = 16–24 on a
/// two-thread pool.
pub fn exact_best_response_parallel(game: &Game, profile: &Profile, agent: NodeId) -> BestResponse {
    exact_best_response(game, profile, agent)
}

/// The optimistic-network search: the same candidate order, edge-cost
/// term and screen as [`BrSearch`], but the live vector is relaxed
/// through a [`DynamicSssp`] undo log over a CSR snapshot of the base
/// graph, and the bound row takes its completions through the optimistic
/// network `B* = base ∪ star(all candidates)`:
/// `via[idx·n + x] = min_{i ≥ idx} (cand_w[i] + d_{B*}(candidates[i], x))`.
/// `B*` is a supergraph of every reachable network, so the bound is
/// admissible, but weaker than [`BrSearch`]'s (a `B*` path may return
/// through the agent's star).
struct BstarSearch<'g> {
    game: &'g Game,
    agent: NodeId,
    n: usize,
    csr: Csr,
    candidates: Vec<NodeId>,
    cand_w: Vec<f64>,
    via: Vec<f64>,
    inc: DynamicSssp,
    tally: Tally,
}

impl<'g> BstarSearch<'g> {
    fn new(game: &'g Game, agent: NodeId, base: &AdjacencyList) -> Self {
        let n = game.n();
        let (mut candidates, mut cand_w) = (Vec::new(), Vec::new());
        sort_candidates(game, agent, &mut candidates, &mut cand_w);
        let weight_class = game.weight_class();
        let csr = Csr::from_adjacency(base);
        let mut scratch = DijkstraScratch::new();
        scratch.set_weight_class(weight_class);
        scratch.run(&csr, agent, &[]);
        let mut inc = DynamicSssp::new();
        inc.set_weight_class(weight_class);
        inc.reset_from(agent, &scratch.to_vec(n));

        let mut bstar = base.clone();
        for &v in &candidates {
            if !bstar.has_edge(agent, v) {
                bstar.add_edge(agent, v, game.w(agent, v));
            }
        }
        let bstar_csr = Csr::from_adjacency(&bstar);
        // Suffix-min bound table, built back to front.
        let len = candidates.len();
        let mut via = vec![f64::INFINITY; (len + 1) * n];
        for i in (0..len).rev() {
            scratch.run(&bstar_csr, candidates[i], &[]);
            let (lo, hi) = (i * n, (i + 1) * n);
            for x in 0..n {
                let through = cand_w[i] + scratch.dist(x as NodeId);
                via[lo + x] = through.min(via[hi + x]);
            }
        }
        BstarSearch {
            game,
            agent,
            n,
            csr,
            candidates,
            cand_w,
            via,
            inc,
            tally: Tally::default(),
        }
    }

    fn dfs(&mut self, idx: usize, edge_w_sum: f64) {
        self.tally.nodes += 1;
        let dist_lb = dist_bound(self.inc.dist(), &self.via, idx);
        let lb = lower_bound(self.game, &self.cand_w, idx, edge_w_sum, dist_lb);
        if lb >= self.tally.best_cost - gncg_graph::EPS {
            return;
        }
        let (v, w) = (self.candidates[idx], self.cand_w[idx]);
        self.inc.add_edge(&self.csr, self.agent, v, w);
        self.tally.include(v);
        self.tally
            .price(self.game, self.agent, edge_w_sum + w, self.inc.sum());
        self.dfs(idx + 1, edge_w_sum + w);
        self.tally.exclude_last();
        self.inc.undo();
        self.dfs(idx + 1, edge_w_sum);
    }
}

/// [`exact_best_response`] through the optimistic-network search, which
/// rebuilds its state (a CSR snapshot plus the `n + 1` Dijkstras of the
/// `B*` bound table) and relaxes a [`DynamicSssp`] along the DFS: the
/// oracle that debug builds check every [`BrSearch`] against, and the
/// rebuild baseline of the `br_grid` bench. It returns the same strategy
/// and cost bits as [`BrSearch::best_response`].
///
/// `current` must equal `agent_cost_in(game, profile, network, agent)
/// .total()` exactly (it seeds the incumbent, so a too-low value could
/// prune the true optimum).
pub fn exact_best_response_given_current(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
    current: f64,
) -> BestResponse {
    let base = base_graph_from(network, profile, agent);
    let mut search = BstarSearch::new(game, agent, &base);
    search
        .tally
        .reset(search.n, current, profile.strategy(agent));
    // The empty set is the one subset with no include step: price it here.
    let d0_sum = search.inc.sum();
    search.tally.price(game, agent, 0.0, d0_sum);
    search.dfs(0, 0.0);
    search.tally.result(current)
}

/// The historical from-scratch engine: one Dijkstra per leaf, pruned only
/// by the static host-closure bound. Kept as the equivalence oracle for
/// the branch-and-bound searches (the `br_equivalence` proptests) and as
/// the baseline the `best_response` bench measures speedups against.
pub fn exact_best_response_reference(
    game: &Game,
    profile: &Profile,
    agent: NodeId,
) -> BestResponse {
    let n = game.n();
    let base = base_graph_without(game, profile, agent);
    let network = profile.build_network(game);
    let current = agent_cost_in(game, profile, &network, agent).total();

    // Distance lower bound: Σ_v d_H(agent, v).
    let dist_lb: f64 = game.host_distances().row(agent).iter().sum();

    let mut candidates: Vec<NodeId> = (0..n as NodeId).filter(|&v| v != agent).collect();
    candidates.sort_by(|&a, &b| game.w(agent, a).total_cmp(&game.w(agent, b)));

    let mut best_cost = current;
    let mut best_set: BTreeSet<NodeId> = profile.strategy(agent).clone();
    let mut evaluated = 0usize;
    let mut chosen: Vec<NodeId> = Vec::new();
    dfs_reference(
        game,
        &base,
        agent,
        &candidates,
        0,
        &mut chosen,
        0.0,
        dist_lb,
        &mut best_cost,
        &mut best_set,
        &mut evaluated,
    );

    BestResponse {
        strategy: best_set,
        cost: best_cost,
        current_cost: current,
        evaluated,
        nodes: 0,
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_reference(
    game: &Game,
    base: &AdjacencyList,
    agent: NodeId,
    candidates: &[NodeId],
    idx: usize,
    chosen: &mut Vec<NodeId>,
    edge_cost: f64,
    dist_lb: f64,
    best_cost: &mut f64,
    best_set: &mut BTreeSet<NodeId>,
    evaluated: &mut usize,
) {
    // Admissible bound: committed α-weighted edge cost + host-distance LB.
    if game.alpha() * edge_cost + dist_lb >= *best_cost - gncg_graph::EPS {
        return;
    }
    if idx == candidates.len() {
        let set: BTreeSet<NodeId> = chosen.iter().copied().collect();
        let c = candidate_cost(game, base, agent, &set);
        *evaluated += 1;
        if strictly_less(c.total(), *best_cost) {
            *best_cost = c.total();
            *best_set = set;
        }
        return;
    }
    let v = candidates[idx];
    chosen.push(v);
    dfs_reference(
        game,
        base,
        agent,
        candidates,
        idx + 1,
        chosen,
        edge_cost + game.w(agent, v),
        dist_lb,
        best_cost,
        best_set,
        evaluated,
    );
    chosen.pop();
    dfs_reference(
        game,
        base,
        agent,
        candidates,
        idx + 1,
        chosen,
        edge_cost,
        dist_lb,
        best_cost,
        best_set,
        evaluated,
    );
}

/// The best single greedy move (add / delete / swap) of `agent`, if any
/// strictly improving one exists. Returns the move together with the cost
/// it achieves.
pub fn best_greedy_move(game: &Game, profile: &Profile, agent: NodeId) -> Option<(Move, f64)> {
    best_move_among(game, profile, agent, &Move::greedy_moves(profile, agent))
}

/// The best single edge *addition* of `agent`, if an improving one exists
/// (the move space of Add-only Equilibria).
pub fn best_add_move(game: &Game, profile: &Profile, agent: NodeId) -> Option<(Move, f64)> {
    best_move_among(game, profile, agent, &Move::add_moves(profile, agent))
}

/// Evaluates a set of moves and returns the best strictly-improving one.
pub fn best_move_among(
    game: &Game,
    profile: &Profile,
    agent: NodeId,
    moves: &[Move],
) -> Option<(Move, f64)> {
    let network = profile.build_network(game);
    let current = agent_cost_in(game, profile, &network, agent).total();
    best_move_among_given_current(game, profile, &network, agent, current, moves)
}

/// [`best_move_among`] in an already-built network, with the agent's
/// current cost supplied by the caller (see
/// [`exact_best_response_given_current`] for the contract on `current`).
///
/// Prices every candidate with a masked from-scratch Dijkstra
/// ([`candidate_cost`]): the **oracle** of the speculative scan
/// ([`best_move_among_speculative`], which produces bitwise-identical
/// choices and totals off a warm distance vector under
/// [`SpeculativePricing::FullSum`]) and the masked baseline of the
/// `move_scan` bench.
pub fn best_move_among_given_current(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    agent: NodeId,
    current: f64,
    moves: &[Move],
) -> Option<(Move, f64)> {
    let base = base_graph_from(network, profile, agent);
    let own = profile.strategy(agent);
    let mut best: Option<(Move, f64)> = None;
    for m in moves {
        let cand = m.apply(agent, own);
        let c = candidate_cost(game, &base, agent, &cand).total();
        let incumbent = best.as_ref().map_or(current, |&(_, b)| b);
        if strictly_less(c, incumbent) {
            best = Some((m.clone(), c));
        }
    }
    best
}

/// How the speculative move scan reads a candidate's distance cost off
/// the warm vector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpeculativePricing {
    /// Re-sum the whole `n`-length vector per candidate — `O(n)` per
    /// move, bitwise-identical to the masked-Dijkstra oracle, the
    /// policy every pre-existing golden was recorded under.
    #[default]
    FullSum,
    /// Bounded-horizon pricing: one full sum per scan, then each
    /// candidate is priced as `sum₀ + Σ_{v touched} (dist(v) − dist₀(v))`
    /// over the speculation undo log, with the speculative relaxation
    /// itself truncated after [`PRICE_HORIZON`] settled nodes — `O(horizon)`
    /// per move instead of the `O(n)` re-sum *or* the `Θ(n)` exact region
    /// repair a good candidate edge floods through a mid-run network.
    /// Truncated prices are sound upper bounds (the abandoned frontier
    /// keeps its valid pre-insert distances), so ranking is approximate;
    /// the winner is re-priced with the horizon cleared and an exact full
    /// sum (and re-gated against `current`) before being returned, so
    /// the *reported* move cost is always oracle-exact. A candidate whose
    /// upper bound never beats the incumbent can be missed — a distinct
    /// deterministic dynamics, not a bitwise re-expression of
    /// [`Self::FullSum`] — which is why it is opt-in, participates in
    /// scenario digests, and carries its own goldens. Below `n ≈
    /// PRICE_HORIZON` the truncation can never trigger and only sub-ulp
    /// delta re-association separates the two policies.
    RegionDelta,
}

/// Settle budget of [`SpeculativePricing::RegionDelta`]'s per-candidate
/// speculative relaxations (see [`DynamicSssp::set_price_horizon`]). A
/// fixed constant of the policy — it shapes which moves the bounded
/// dynamics chooses, so tuning it is a byte-stream-breaking change.
pub const PRICE_HORIZON: usize = 16;

/// [`best_move_among_given_current`] evaluated **speculatively** against
/// the agent's warm distance vector instead of one masked Dijkstra per
/// candidate.
///
/// `warm` must hold the agent's exact distance vector in `network`
/// (source `agent`, bitwise what a fresh Dijkstra produces — e.g. the
/// dynamics engine's warm per-agent vector), and `current` the agent's
/// exact current total cost. Each single-edge candidate is priced by the
/// speculation-frame lifecycle of `gncg_graph::csr`:
///
/// 1. **apply** — open a frame and stage the move's network-level edge
///    delta on the vector: a dropped sole-owned edge is a logged
///    Ramalingam–Reps repair over a [`MaskedEdges`] view of `network`
///    (the graph itself is never mutated), a genuinely new edge is a
///    logged source-incident relaxation;
/// 2. **read** — the candidate's distance cost is the warm sum, in the
///    same index order the oracle sums its Dijkstra vector, and its edge
///    cost re-accumulates in ascending node-id order, matching
///    [`candidate_cost`]'s `BTreeSet` iteration bit for bit;
/// 3. **rollback** — the frame restores the pre-move vector bitwise, so
///    the next candidate starts from the same warm state.
///
/// Degenerate deltas (dropping a co-owned edge, gaining an
/// already-present one) change no distances and read the current sum
/// directly. [`Move::Replace`] candidates are not single-edge deltas and
/// fall back to the oracle's [`candidate_cost`] pricing.
///
/// Under [`SpeculativePricing::FullSum`] it returns exactly what
/// [`best_move_among_given_current`] returns — the same chosen move and
/// the same cost bits (debug-asserted against the oracle, alongside the
/// bitwise restoration of `warm`). Under
/// [`SpeculativePricing::RegionDelta`] the reported cost of the chosen
/// move is debug-asserted against the oracle's price of that move.
///
/// Every move must be *valid for `profile`* in the [`Move::apply`] sense
/// (deletes and swap-drops name owned edges, adds and swap-gains name
/// non-owned ones) — the shape [`Move::greedy_moves`] /
/// [`Move::add_moves`] enumerate. The oracle enforces this with
/// assertions inside `Move::apply`; this path relies on it (an invalid
/// move may panic on a missing network edge or price the edge term
/// differently from a set-based candidate).
///
/// `pricing` selects how a candidate's distance cost is read off the
/// frame (see [`SpeculativePricing`]).
#[allow(clippy::too_many_arguments)]
pub fn best_move_among_speculative(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    warm: &mut DynamicSssp,
    agent: NodeId,
    current: f64,
    moves: &[Move],
    pricing: SpeculativePricing,
) -> Option<(Move, f64)> {
    #[cfg(debug_assertions)]
    let before: Vec<f64> = warm.dist().to_vec();
    // One O(n) sum for the whole scan under RegionDelta; FullSum keeps
    // its historical lazy reads (degenerate deltas only).
    let sum0 = match pricing {
        SpeculativePricing::FullSum => 0.0,
        SpeculativePricing::RegionDelta => warm.sum(),
    };
    // Bounded horizon: candidate relaxations settle at most PRICE_HORIZON
    // nodes (upper-bound prices); cleared again before the winner's exact
    // re-price below. Only speculation frames consult the budget, so a
    // stray setting could never leak into committed repairs.
    if pricing == SpeculativePricing::RegionDelta {
        warm.set_price_horizon(Some(PRICE_HORIZON));
    }
    let own = profile.strategy(agent);
    let alpha = game.alpha();
    // Replace moves price through the oracle path; its base graph is
    // derived at most once.
    let mut base: Option<AdjacencyList> = None;
    let mut best: Option<(Move, f64)> = None;
    let update = |m: &Move, c: f64, best: &mut Option<(Move, f64)>| {
        let incumbent = best.as_ref().map_or(current, |&(_, b)| b);
        if strictly_less(c, incumbent) {
            *best = Some((m.clone(), c));
        }
    };
    let mut i = 0;
    while i < moves.len() {
        // Consecutive swaps dropping the same sole-owned edge (the shape
        // `Move::greedy_moves` enumerates) share one removal repair:
        // frames nest, so the dropped edge is repaired once in an outer
        // frame and each add target is an inner insert + rollback —
        // `k` removals for `k·(n−1−k)` swap candidates, not one each.
        if let Move::Swap(d, _) = moves[i] {
            if !profile.owns(d, agent) {
                let run = moves[i..]
                    .iter()
                    .take_while(|m| matches!(m, Move::Swap(dd, _) if *dd == d))
                    .count();
                let w = network
                    .edge_weight(agent, d)
                    .expect("sole-owned strategy edge must be in the network");
                let mask = [(agent, d)];
                let view = MaskedEdges::new(network, &mask);
                // The mark is taken before the outer removal frame, so a
                // RegionDelta price covers the removal repair *and* the
                // inner insert in one undo-log suffix.
                let mark = warm.undo_len();
                warm.begin_speculation();
                warm.remove_edge(&view, agent, d, w);
                for m in &moves[i..i + run] {
                    let &Move::Swap(_, a) = m else { unreachable!() };
                    let dist = if network.has_edge(agent, a) {
                        // Gained edge already present: the removal repair
                        // is the whole delta.
                        frame_price(warm, pricing, sum0, mark)
                    } else {
                        warm.begin_speculation();
                        warm.speculate_insert(&view, agent, a, game.w(agent, a));
                        let s = frame_price(warm, pricing, sum0, mark);
                        warm.rollback();
                        s
                    };
                    let c = alpha * candidate_edge_sum(game, agent, own, m) + dist;
                    update(m, c, &mut best);
                }
                warm.rollback();
                i += run;
                continue;
            }
        }
        let m = &moves[i];
        let c = match m {
            Move::Replace(cand) => {
                let base = base.get_or_insert_with(|| base_graph_from(network, profile, agent));
                candidate_cost(game, base, agent, cand).total()
            }
            _ => {
                let dist =
                    speculative_distance_sum(game, profile, network, warm, agent, m, pricing, sum0);
                alpha * candidate_edge_sum(game, agent, own, m) + dist
            }
        };
        update(m, c, &mut best);
        i += 1;
    }
    // RegionDelta ranked the candidates on approximate prices; the
    // reported cost must be oracle-exact, so the winner is re-priced
    // with a full sum and re-gated against `current` (a sub-ulp
    // "improvement" that was an artifact of delta re-association must
    // not be reported as improving).
    if pricing == SpeculativePricing::RegionDelta {
        warm.set_price_horizon(None);
        best = best.and_then(|(m, c)| match m {
            // Replace moves were priced exactly by the oracle path.
            Move::Replace(_) => strictly_less(c, current).then_some((m, c)),
            _ => {
                let dist = speculative_distance_sum(
                    game,
                    profile,
                    network,
                    warm,
                    agent,
                    &m,
                    SpeculativePricing::FullSum,
                    0.0,
                );
                let exact = alpha * candidate_edge_sum(game, agent, own, &m) + dist;
                strictly_less(exact, current).then_some((m, exact))
            }
        });
    }
    #[cfg(debug_assertions)]
    {
        debug_assert!(
            warm.dist() == before.as_slice() && warm.depth() == 0 && warm.speculation_depth() == 0,
            "speculative scan must leave the warm vector bitwise untouched"
        );
        match pricing {
            SpeculativePricing::FullSum => {
                let oracle =
                    best_move_among_given_current(game, profile, network, agent, current, moves);
                debug_assert_eq!(
                    best, oracle,
                    "speculative scan drifted from the masked-Dijkstra oracle"
                );
            }
            SpeculativePricing::RegionDelta => {
                // The chosen move may legitimately differ from FullSum on
                // sub-ulp ties, but the reported cost of whatever *was*
                // chosen must be bitwise what the oracle prices it at.
                if let Some((m, c)) = &best {
                    let oracle = best_move_among_given_current(
                        game,
                        profile,
                        network,
                        agent,
                        current,
                        std::slice::from_ref(m),
                    );
                    debug_assert_eq!(
                        oracle,
                        Some((m.clone(), *c)),
                        "region-delta winner's exact re-price drifted from the oracle"
                    );
                }
            }
        }
    }
    best
}

/// Reads the current candidate's distance cost off an open speculation
/// frame according to the pricing policy. `mark` is the undo-log length
/// from just before the frame (chain) opened; `sum0` the pre-scan full
/// sum (RegionDelta only). A non-finite delta price (∞ − ∞ churn from
/// disconnections) falls back to the exact full sum for that candidate.
fn frame_price(warm: &mut DynamicSssp, pricing: SpeculativePricing, sum0: f64, mark: usize) -> f64 {
    match pricing {
        SpeculativePricing::FullSum => warm.sum(),
        SpeculativePricing::RegionDelta => {
            let p = sum0 + warm.delta_sum_since(mark);
            if p.is_finite() {
                p
            } else {
                warm.sum()
            }
        }
    }
}

/// The distance cost of single-edge move `m`, read off `warm` after
/// speculatively applying the move's network-level edge delta (an owned
/// edge leaves the network only when the other endpoint does not also own
/// it; a new edge enters only when not already present — the same rules
/// the dynamics engine applies to committed moves).
#[allow(clippy::too_many_arguments)]
fn speculative_distance_sum(
    game: &Game,
    profile: &Profile,
    network: &AdjacencyList,
    warm: &mut DynamicSssp,
    agent: NodeId,
    m: &Move,
    pricing: SpeculativePricing,
    sum0: f64,
) -> f64 {
    let (dropped, gained) = match *m {
        Move::Add(v) => (None, Some(v)),
        Move::Delete(v) => (Some(v), None),
        Move::Swap(d, a) => (Some(d), Some(a)),
        Move::Replace(_) => unreachable!("Replace moves are priced by the oracle path"),
    };
    let dropped = dropped.filter(|&v| !profile.owns(v, agent));
    let gained = gained.filter(|&v| !network.has_edge(agent, v));
    if dropped.is_none() && gained.is_none() {
        // Degenerate delta: the network (hence the vector) is unchanged,
        // so the pre-scan sum *is* the exact price under either policy.
        return match pricing {
            SpeculativePricing::FullSum => warm.sum(),
            SpeculativePricing::RegionDelta => sum0,
        };
    }
    let mask_buf;
    let mask: &[(NodeId, NodeId)] = match dropped {
        Some(v) => {
            mask_buf = [(agent, v)];
            &mask_buf
        }
        None => &[],
    };
    let view = MaskedEdges::new(network, mask);
    let mark = warm.undo_len();
    warm.begin_speculation();
    if let Some(v) = dropped {
        let w = network
            .edge_weight(agent, v)
            .expect("sole-owned strategy edge must be in the network");
        warm.remove_edge(&view, agent, v, w);
    }
    if let Some(v) = gained {
        warm.speculate_insert(&view, agent, v, game.w(agent, v));
    }
    let sum = frame_price(warm, pricing, sum0, mark);
    warm.rollback();
    sum
}

/// `Σ w(agent, x)` over the candidate set `m` produces from `own`,
/// accumulated in ascending node-id order — the `BTreeSet` iteration
/// order [`candidate_cost`]'s edge term uses, so totals agree bitwise
/// (f64 addition is order-sensitive).
fn candidate_edge_sum(game: &Game, agent: NodeId, own: &BTreeSet<NodeId>, m: &Move) -> f64 {
    let (drop, add) = match *m {
        Move::Add(v) => (None, Some(v)),
        Move::Delete(v) => (Some(v), None),
        Move::Swap(d, a) => (Some(d), Some(a)),
        Move::Replace(_) => unreachable!("Replace moves are priced by the oracle path"),
    };
    let mut sum = 0.0;
    let mut pending = add;
    for &x in own {
        if Some(x) == drop {
            continue;
        }
        if let Some(a) = pending {
            if a < x {
                sum += game.w(agent, a);
                pending = None;
            }
        }
        sum += game.w(agent, x);
    }
    if let Some(a) = pending {
        sum += game.w(agent, a);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_graph::SymMatrix;

    fn unit_game(n: usize, alpha: f64) -> Game {
        Game::new(SymMatrix::filled(n, 1.0), alpha)
    }

    #[test]
    fn isolated_agent_buys_exactly_one_edge_into_a_star() {
        // Star on 4 nodes around 0 (owned by 0); agent 3 removed from the
        // star and isolated. Its best response for α = 1 is to buy the
        // cheapest connection, via the center (all weights 1, so any single
        // edge to the center is optimal: dist 1 + 2 + 2 vs edge 1).
        let game = unit_game(4, 5.0);
        let mut p = Profile::empty(4);
        p.buy(0, 1);
        p.buy(0, 2);
        let br = exact_best_response(&game, &p, 3);
        assert!(br.improves()); // currently disconnected, cost ∞
        assert_eq!(br.strategy.len(), 1);
        assert!(br.strategy.contains(&0));
        // α·1 + (1 + 2 + 2) = 10.
        assert_eq!(br.cost, 10.0);
    }

    #[test]
    fn low_alpha_buys_everything() {
        // For tiny α the best response is to connect directly to everyone.
        let game = unit_game(5, 0.01);
        let p = Profile::star(5, 0);
        let br = exact_best_response(&game, &p, 2);
        assert_eq!(
            br.strategy.len(),
            3,
            "buy direct edges to all non-neighbors"
        );
        assert!(br.improves());
    }

    #[test]
    fn high_alpha_keeps_nothing_extra() {
        // Star center 0 owns all edges; leaf 1 should buy nothing at high α.
        let game = unit_game(5, 100.0);
        let p = Profile::star(5, 0);
        let br = exact_best_response(&game, &p, 1);
        assert!(!br.improves());
        assert!(br.strategy.is_empty());
    }

    #[test]
    fn exact_br_at_least_as_good_as_greedy() {
        let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, 17);
        let game = Game::new(host, 1.5);
        let mut p = Profile::star(8, 0);
        p.buy(3, 4);
        for agent in 0..8 {
            let br = exact_best_response(&game, &p, agent);
            if let Some((_, g)) = best_greedy_move(&game, &p, agent) {
                assert!(
                    br.cost <= g + 1e-9,
                    "agent {agent}: BR {} > greedy {g}",
                    br.cost
                );
            }
            assert!(br.cost <= br.current_cost + 1e-9);
        }
    }

    #[test]
    fn incremental_matches_reference_cost_exactly() {
        // Bit-for-bit equivalence of the facility-location search against the
        // historical from-scratch engine, across α regimes.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            for alpha in [0.05, 0.6, 1.5, 4.0, 50.0] {
                let game = Game::new(host.clone(), alpha);
                let mut p = Profile::star(8, (seed % 8) as NodeId);
                p.buy(2, 5);
                for agent in 0..8u32 {
                    let inc = exact_best_response(&game, &p, agent);
                    let refr = exact_best_response_reference(&game, &p, agent);
                    assert_eq!(
                        inc.cost, refr.cost,
                        "seed {seed} α {alpha} agent {agent}: {} vs {}",
                        inc.cost, refr.cost
                    );
                    assert_eq!(inc.current_cost, refr.current_cost);
                }
            }
        }
    }

    #[test]
    fn incremental_strategy_achieves_reported_cost() {
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(7, 1.0, 5.0, seed + 100);
            let game = Game::new(host, 1.1);
            let mut p = Profile::star(7, 0);
            p.buy(4, 6);
            for agent in 0..7u32 {
                let br = exact_best_response(&game, &p, agent);
                let mut p2 = p.clone();
                p2.set_strategy(agent, br.strategy.clone());
                let real = crate::cost::agent_cost(&game, &p2, agent).total();
                assert!(
                    gncg_graph::approx_eq(real, br.cost),
                    "agent {agent}: {real} vs {}",
                    br.cost
                );
            }
        }
    }

    #[test]
    fn best_greedy_move_finds_add() {
        // Path 0-1-2-3 with unit weights, α = 0.1: endpoints want shortcuts.
        let game = unit_game(4, 0.1);
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (m, c) = best_greedy_move(&game, &p, 0).expect("improving move exists");
        match m {
            Move::Add(v) => assert!(v == 2 || v == 3),
            other => panic!("expected Add, got {other:?}"),
        }
        assert!(c < agent_cost_in(&game, &p, &p.build_network(&game), 0).total());
    }

    #[test]
    fn best_greedy_move_finds_delete() {
        // Triangle where 0 owns a redundant heavy edge.
        let mut w = SymMatrix::filled(3, 1.0);
        w.set(0, 2, 1.5);
        let game = Game::new(w, 10.0);
        let p = Profile::from_owned_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let (m, _) = best_greedy_move(&game, &p, 0).expect("delete should improve");
        assert_eq!(m, Move::Delete(2));
    }

    #[test]
    fn speculative_scan_matches_oracle_bitwise() {
        // Every greedy move of every agent, across α regimes, with a
        // co-owned edge in play: the speculative scan must return exactly
        // the oracle's chosen move and cost bits, and leave the warm
        // vector untouched.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            for alpha in [0.3, 1.5, 6.0] {
                let game = Game::new(host.clone(), alpha);
                let mut p = Profile::star(8, (seed % 8) as NodeId);
                p.buy(2, 5);
                if !p.owns(5, 2) {
                    p.buy(5, 2); // co-owned: its Delete is a degenerate delta
                }
                let network = p.build_network(&game);
                for agent in 0..8u32 {
                    let moves = Move::greedy_moves(&p, agent);
                    let current = agent_cost_in(&game, &p, &network, agent).total();
                    let mut warm = DynamicSssp::new();
                    warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
                    let spec = best_move_among_speculative(
                        &game,
                        &p,
                        &network,
                        &mut warm,
                        agent,
                        current,
                        &moves,
                        SpeculativePricing::FullSum,
                    );
                    let oracle =
                        best_move_among_given_current(&game, &p, &network, agent, current, &moves);
                    assert_eq!(spec, oracle, "seed {seed} α {alpha} agent {agent}");
                }
            }
        }
    }

    #[test]
    fn region_delta_pricing_matches_oracle_on_clear_instances() {
        // On hosts whose move costs are separated far beyond an ulp, the
        // bounded-horizon policy must choose the oracle's move and report
        // the oracle's exact cost bits — with and without the bucket-queue
        // weight-class hint installed on the warm vector.
        for seed in 0..4u64 {
            let host = gncg_metrics::arbitrary::random_metric(8, 1.0, 4.0, seed);
            for alpha in [0.3, 1.5, 6.0] {
                let game = Game::new(host.clone(), alpha);
                let mut p = Profile::star(8, (seed % 8) as NodeId);
                p.buy(2, 5);
                if !p.owns(5, 2) {
                    p.buy(5, 2);
                }
                let network = p.build_network(&game);
                for agent in 0..8u32 {
                    let moves = Move::greedy_moves(&p, agent);
                    let current = agent_cost_in(&game, &p, &network, agent).total();
                    let mut warm = DynamicSssp::new();
                    warm.set_weight_class(game.weight_class());
                    warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
                    let rd = best_move_among_speculative(
                        &game,
                        &p,
                        &network,
                        &mut warm,
                        agent,
                        current,
                        &moves,
                        SpeculativePricing::RegionDelta,
                    );
                    let oracle =
                        best_move_among_given_current(&game, &p, &network, agent, current, &moves);
                    assert_eq!(rd, oracle, "seed {seed} α {alpha} agent {agent}");
                }
            }
        }
    }

    #[test]
    fn region_delta_pricing_survives_disconnection() {
        // ∞ churn in the undo log makes the delta price non-finite; the
        // per-candidate fallback must recover the exact full sum.
        let game = unit_game(4, 0.1);
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let network = p.build_network(&game);
        for agent in 0..4u32 {
            let moves = Move::greedy_moves(&p, agent);
            let current = agent_cost_in(&game, &p, &network, agent).total();
            let mut warm = DynamicSssp::new();
            warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
            let rd = best_move_among_speculative(
                &game,
                &p,
                &network,
                &mut warm,
                agent,
                current,
                &moves,
                SpeculativePricing::RegionDelta,
            );
            let oracle = best_move_among_given_current(&game, &p, &network, agent, current, &moves);
            assert_eq!(rd, oracle, "agent {agent}");
        }
        // Isolated agent: the pre-scan sum is ∞ (sum0 itself non-finite).
        let mut q = Profile::empty(4);
        q.buy(0, 1);
        q.buy(1, 2);
        let network = q.build_network(&game);
        let moves = Move::greedy_moves(&q, 3);
        let current = agent_cost_in(&game, &q, &network, 3).total();
        let mut warm = DynamicSssp::new();
        warm.reset_from(3, &gncg_graph::dijkstra::dijkstra(&network, 3));
        let rd = best_move_among_speculative(
            &game,
            &q,
            &network,
            &mut warm,
            3,
            current,
            &moves,
            SpeculativePricing::RegionDelta,
        );
        let oracle = best_move_among_given_current(&game, &q, &network, 3, current, &moves);
        assert_eq!(rd, oracle);
        assert!(rd.is_some(), "connecting must improve on ∞");
    }

    #[test]
    fn speculative_scan_handles_disconnection_both_ways() {
        // Deleting a bridge prices candidates at ∞; an isolated agent
        // prices its current cost at ∞. Both must match the oracle.
        let game = unit_game(4, 0.1);
        let p = Profile::from_owned_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let network = p.build_network(&game);
        for agent in 0..4u32 {
            let moves = Move::greedy_moves(&p, agent);
            let current = agent_cost_in(&game, &p, &network, agent).total();
            let mut warm = DynamicSssp::new();
            warm.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&network, agent));
            let spec = best_move_among_speculative(
                &game,
                &p,
                &network,
                &mut warm,
                agent,
                current,
                &moves,
                SpeculativePricing::FullSum,
            );
            let oracle = best_move_among_given_current(&game, &p, &network, agent, current, &moves);
            assert_eq!(spec, oracle, "agent {agent}");
        }
        // Isolated agent 3: every distance but its own is ∞.
        let mut q = Profile::empty(4);
        q.buy(0, 1);
        q.buy(1, 2);
        let network = q.build_network(&game);
        let moves = Move::greedy_moves(&q, 3);
        let current = agent_cost_in(&game, &q, &network, 3).total();
        assert!(current.is_infinite());
        let mut warm = DynamicSssp::new();
        warm.reset_from(3, &gncg_graph::dijkstra::dijkstra(&network, 3));
        let spec = best_move_among_speculative(
            &game,
            &q,
            &network,
            &mut warm,
            3,
            current,
            &moves,
            SpeculativePricing::FullSum,
        );
        let oracle = best_move_among_given_current(&game, &q, &network, 3, current, &moves);
        assert_eq!(spec, oracle);
        assert!(spec.is_some(), "connecting must improve on ∞");
    }

    #[test]
    fn parallel_br_matches_sequential_cost() {
        for seed in 0..3u64 {
            let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
            let game = Game::new(host, 1.2);
            let mut p = Profile::star(9, 0);
            p.buy(2, 5);
            p.buy(7, 3);
            for agent in 0..9u32 {
                let seq = exact_best_response(&game, &p, agent);
                let par = exact_best_response_parallel(&game, &p, agent);
                assert_eq!(
                    seq.cost.to_bits(),
                    par.cost.to_bits(),
                    "agent {agent} seed {seed}: {} vs {}",
                    seq.cost,
                    par.cost
                );
                assert_eq!(seq.current_cost, par.current_cost);
                // The strategy must achieve its reported cost.
                let mut p2 = p.clone();
                p2.set_strategy(agent, par.strategy.clone());
                let real = crate::cost::agent_cost(&game, &p2, agent).total();
                assert!(gncg_graph::approx_eq(real, par.cost));
            }
        }
    }

    #[test]
    fn parallel_br_tiny_instance_falls_back() {
        let game = unit_game(4, 1.0);
        let p = Profile::star(4, 0);
        let par = exact_best_response_parallel(&game, &p, 1);
        let seq = exact_best_response(&game, &p, 1);
        assert!(gncg_graph::approx_eq(par.cost, seq.cost));
    }

    #[test]
    fn br_in_matches_br_with_fresh_network() {
        let host = gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, 5);
        let game = Game::new(host, 2.0);
        let p = Profile::star(6, 2);
        let network = p.build_network(&game);
        for agent in 0..6u32 {
            let a = exact_best_response(&game, &p, agent);
            let current = agent_cost_in(&game, &p, &network, agent).total();
            let b = exact_best_response_given_current(&game, &p, &network, agent, current);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.strategy, b.strategy);
        }
    }

    #[test]
    fn br_on_weighted_path_prefers_cheap_edges() {
        // Host: metric from a path with increasing weights. Agent n-1
        // disconnected; best single edge should weigh cheapness vs centrality.
        let t = gncg_graph::WeightedTree::path(&[1.0, 1.0, 10.0]);
        let host = t.metric_closure();
        let game = Game::new(host, 1.0);
        let mut p = Profile::empty(4);
        p.buy(0, 1);
        p.buy(1, 2);
        let br = exact_best_response(&game, &p, 3);
        // Buying (3,2) costs α·10 + dist (10 + 11 + 12) — best option is
        // still a connection; exact solver must find the cheapest total.
        assert!(br.cost.is_finite());
        assert!(!br.strategy.is_empty());
        // Verify optimality against brute force over all 7 nonempty subsets.
        let base = base_graph_without(&game, &p, 3);
        let mut brute = f64::INFINITY;
        for mask in 1u32..8 {
            let set: BTreeSet<NodeId> = (0..3)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| i as NodeId)
                .collect();
            let c = candidate_cost(&game, &base, 3, &set).total();
            brute = brute.min(c);
        }
        assert!(gncg_graph::approx_eq(br.cost, brute));
    }

    #[test]
    fn screen_never_skips_a_set_that_would_replace_the_incumbent() {
        // Edge weights spread over 16 orders of magnitude make the DFS-order
        // and ascending-id sums of one set round differently; for every
        // set and every order, the tightest incumbent the exact price
        // would still beat must pass the screen.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..2000 {
            let n = 2 + (next() % 30) as usize;
            let k = 1 + (next() % (n as u64 - 1)) as usize;
            let weights: Vec<f64> = (0..k)
                .map(|_| 10f64.powi((next() % 17) as i32 - 8) * (1.0 + (next() % 1000) as f64))
                .collect();
            let alpha = 10f64.powi((next() % 9) as i32 - 4);
            let dist_sum = (next() % 10_000) as f64 * 0.37;
            let ascending: f64 = weights.iter().fold(0.0, |acc, &w| acc + w);
            let mut order = weights.clone();
            for i in (1..k).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let dfs_order: f64 = order.iter().fold(0.0, |acc, &w| acc + w);
            let exact = alpha * ascending + dist_sum;
            let screened = alpha * dfs_order + dist_sum;
            let mut incumbent = exact + gncg_graph::EPS;
            while !strictly_less(exact, incumbent) {
                incumbent = incumbent.next_up();
            }
            assert!(
                screen_may_improve(screened, incumbent, n),
                "trial {trial}: screened {screened} skipped exact {exact} < {incumbent}"
            );
            // A disconnected agent's ∞ incumbent: always the exact path.
            assert!(screen_may_improve(screened, f64::INFINITY, n));
        }
        // An ∞ price never improves, on any incumbent.
        assert!(!screen_may_improve(f64::INFINITY, f64::INFINITY, 5));
        assert!(!screen_may_improve(f64::INFINITY, 1.0e300, 5));
        // Far above the incumbent, the screen does skip.
        assert!(!screen_may_improve(10.0, 5.0, 5));
    }

    /// The facility-location tables, the bound and the pricing screen
    /// against brute force and against the optimistic-network oracle, on
    /// every registered host family (∞ weights included), from sparse,
    /// often disconnected starting profiles, at α well below and well
    /// above the host's edge-weight scale.
    mod bound_props {
        use super::*;
        use proptest::prelude::*;

        /// A game on factory `key` with α a multiple of the host's mean
        /// finite edge weight.
        fn factory_game(key: usize, n: usize, seed: u64, alpha_factor: f64) -> Game {
            let host = gncg_metrics::factory::registry()[key].build(n, seed);
            let (mut sum, mut count) = (0.0, 0usize);
            for u in 0..n as NodeId {
                for v in u + 1..n as NodeId {
                    if host.get(u, v).is_finite() {
                        sum += host.get(u, v);
                        count += 1;
                    }
                }
            }
            let scale = if count > 0 && sum > 0.0 {
                sum / count as f64
            } else {
                1.0
            };
            Game::new(host, alpha_factor * scale)
        }

        /// A random instance: game, profile (random finite-weight
        /// purchases at a density that leaves many agents disconnected),
        /// and the deviating agent.
        fn instance() -> impl Strategy<Value = (Game, Profile, NodeId)> {
            (
                (0usize..9, 2usize..10, 0u64..1 << 16),
                (0usize..4, 0usize..3),
                (0u32..9, proptest::collection::vec(0u64..1000, 81)),
            )
                .prop_map(|((key, n, seed), (a, d), (agent, draws))| {
                    let alpha_factor = [0.02, 0.6, 3.0, 40.0][a];
                    let density = [0.0, 0.06, 0.18][d];
                    let game = factory_game(key, n, seed, alpha_factor);
                    let mut p = Profile::empty(n);
                    for u in 0..n as NodeId {
                        for v in 0..n as NodeId {
                            let i = u as usize * n + v as usize;
                            let buy = (draws[i] as f64) < density * 1000.0;
                            if u != v && buy && game.w(u, v).is_finite() && !p.has_edge(u, v) {
                                p.buy(u, v);
                            }
                        }
                    }
                    (game, p, agent % n as NodeId)
                })
        }

        /// The search with its tables built for the instance (no DFS run).
        fn built(game: &Game, p: &Profile, agent: NodeId) -> BrSearch {
            let mut search = BrSearch::new();
            search.build(game, p, &p.build_network(game), agent);
            search
        }

        /// Every subset of the candidates, indexed by its bitmask over
        /// candidate positions, priced two ways: exactly (a from-scratch
        /// [`candidate_cost`]), and with the edge sum in DFS order (the
        /// screened price, whose distance term is the same Dijkstra sum).
        fn subset_prices(
            game: &Game,
            t: &BrTables,
            base: &AdjacencyList,
            agent: NodeId,
        ) -> (Vec<f64>, Vec<f64>) {
            let len = t.candidates.len();
            (0..1usize << len)
                .map(|mask| {
                    let set: BTreeSet<NodeId> = (0..len)
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(|i| t.candidates[i])
                        .collect();
                    let c = candidate_cost(game, base, agent, &set);
                    let mut dfs_sum = 0.0;
                    for i in (0..len).filter(|&i| mask & (1 << i) != 0) {
                        dfs_sum += t.cand_w[i];
                    }
                    (c.total(), game.alpha() * dfs_sum + c.distance_cost)
                })
                .unzip()
        }

        /// Walks the whole include/exclude tree without pruning. At every
        /// node the bound must be at most the screened price of every
        /// subset below it, with no slack; every stacked row must price its
        /// set bit for bit as a from-scratch Dijkstra; and the screen must
        /// pass every set whose exact price could replace any incumbent.
        #[allow(clippy::too_many_arguments)]
        fn walk(
            game: &Game,
            t: &BrTables,
            worker: &mut BrWorker,
            prices: &(Vec<f64>, Vec<f64>),
            idx: usize,
            depth: usize,
            mask: usize,
            edge_w_sum: f64,
        ) {
            let (exact, screened) = prices;
            let (n, len) = (t.n, t.candidates.len());
            // The node's unpriced subtree: `mask ∪ T` for non-empty `T`
            // over candidate positions `idx..len`.
            let free = ((1usize << len) - 1) & !((1usize << idx) - 1);
            let mut below = f64::INFINITY;
            let mut sub = free;
            while sub != 0 {
                below = below.min(screened[mask | sub]);
                sub = (sub - 1) & free;
            }
            let row = &worker.stack[depth * n..(depth + 1) * n];
            let lb = lower_bound(
                game,
                &t.cand_w,
                idx,
                edge_w_sum,
                dist_bound(row, &t.via, idx),
            );
            assert!(
                lb <= below,
                "inadmissible bound at depth {idx}, set {mask:b}: {lb} > {below}"
            );
            if idx == len {
                return;
            }
            let w = t.cand_w[idx];
            let exc_want = dist_bound(row, &t.via, idx + 1);
            let (dist_sum, inc_lb, exc_lb) = worker.include(t, idx, depth);
            // The fused pass yields the children's bounds bit for bit.
            let new_row = &worker.stack[(depth + 1) * n..(depth + 2) * n];
            assert_eq!(
                inc_lb.to_bits(),
                dist_bound(new_row, &t.via, idx + 1).to_bits()
            );
            assert_eq!(exc_lb.to_bits(), exc_want.to_bits());
            let child = mask | 1 << idx;
            let price = game.alpha() * (edge_w_sum + w) + dist_sum;
            assert_eq!(price.to_bits(), screened[child].to_bits(), "set {child:b}");
            if exact[child].is_finite() {
                let mut incumbent = exact[child] + gncg_graph::EPS;
                while !strictly_less(exact[child], incumbent) {
                    incumbent = incumbent.next_up();
                }
                assert!(screen_may_improve(price, incumbent, n));
            }
            assert!(screen_may_improve(price, f64::INFINITY, n) == exact[child].is_finite());
            walk(
                game,
                t,
                worker,
                prices,
                idx + 1,
                depth + 1,
                child,
                edge_w_sum + w,
            );
            worker.tally.exclude_last();
            walk(game, t, worker, prices, idx + 1, depth, mask, edge_w_sum);
        }

        /// The search's answer with pruning and screening switched off:
        /// every subset priced exactly, in the DFS's own visit order,
        /// against the same strictly-less incumbent rule.
        fn unpruned_answer(
            t: &BrTables,
            costs: &[f64],
            current: f64,
            current_set: &BTreeSet<NodeId>,
        ) -> (f64, BTreeSet<NodeId>) {
            fn visit(costs: &[f64], len: usize, idx: usize, mask: usize, best: &mut (f64, usize)) {
                if idx == len {
                    return;
                }
                let child = mask | 1 << idx;
                if strictly_less(costs[child], best.0) {
                    *best = (costs[child], child);
                }
                visit(costs, len, idx + 1, child, best);
                visit(costs, len, idx + 1, mask, best);
            }
            let len = t.candidates.len();
            let mut best = (current, usize::MAX);
            if strictly_less(costs[0], best.0) {
                best = (costs[0], 0);
            }
            visit(costs, len, 0, 0, &mut best);
            let set = if best.1 == usize::MAX {
                current_set.clone()
            } else {
                (0..len)
                    .filter(|&i| best.1 & (1 << i) != 0)
                    .map(|i| t.candidates[i])
                    .collect()
            };
            (best.0, set)
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|d| d.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(120))]

            /// At every DFS node the bound is at most the screened price
            /// of every subset below it (the node's own, already priced
            /// set excluded) with no slack, and the screen passes every
            /// set whose exact price could replace any incumbent.
            #[test]
            fn bound_is_admissible_at_every_node(inst in instance()) {
                let (game, p, agent) = inst;
                let base = base_graph_without(&game, &p, agent);
                let mut search = built(&game, &p, agent);
                let prices = subset_prices(&game, &search.tables, &base, agent);
                let current = agent_cost_in(&game, &p, &p.build_network(&game), agent).total();
                search.worker.reset(&search.tables, current, p.strategy(agent));
                walk(&game, &search.tables, &mut search.worker, &prices, 0, 0, 0, 0.0);
            }

            /// `min(d0, min_{v∈S} c_v)` is bitwise the vector a
            /// `DynamicSssp` reaches by relaxing the bought edges of `S`
            /// one by one into the base graph's distances.
            #[test]
            fn stacked_minimum_equals_dynamic_sssp(
                inst in instance(),
                picks in proptest::collection::vec(proptest::bool::ANY, 9),
            ) {
                let (game, p, agent) = inst;
                let search = built(&game, &p, agent);
                let t = &search.tables;
                let base = base_graph_without(&game, &p, agent);
                let csr = Csr::from_adjacency(&base);
                let mut inc = DynamicSssp::new();
                inc.reset_from(agent, &gncg_graph::dijkstra::dijkstra(&base, agent));
                let mut row = t.d0.clone();
                prop_assert_eq!(bits(&row), bits(inc.dist()));
                for (i, (&v, &w)) in t.candidates.iter().zip(&t.cand_w).enumerate() {
                    if picks[i] {
                        inc.add_edge(&csr, agent, v, w);
                        for (x, d) in row.iter_mut().enumerate() {
                            *d = d.min(t.reach[i * t.n + x]);
                        }
                        prop_assert_eq!(bits(&row), bits(inc.dist()), "after buying {}", v);
                    }
                }
            }

            /// The facility-location search returns bit for bit what the
            /// optimistic-network oracle returns (strategy and cost), and
            /// what an exhaustive pricing in the same visit order returns;
            /// its cost bits equal the reference engine's. The strategies
            /// of the reference can differ on exact ties: it prices
            /// leaves, so it meets `{c, d}` before `{c}`, while the
            /// branch-and-bound searches price `{c}` first.
            #[test]
            fn exact_br_matches_exhaustive_and_reference(inst in instance()) {
                let (game, p, agent) = inst;
                let network = p.build_network(&game);
                let current = agent_cost_in(&game, &p, &network, agent).total();
                let br = BrSearch::new().best_response(&game, &p, &network, agent, current);
                let oracle = exact_best_response_given_current(&game, &p, &network, agent, current);
                prop_assert_eq!(&br.strategy, &oracle.strategy);
                prop_assert_eq!(br.cost.to_bits(), oracle.cost.to_bits());

                let base = base_graph_without(&game, &p, agent);
                let search = built(&game, &p, agent);
                let (costs, _) = subset_prices(&game, &search.tables, &base, agent);
                let (cost, set) = unpruned_answer(&search.tables, &costs, current, p.strategy(agent));
                prop_assert_eq!(br.cost.to_bits(), cost.to_bits());
                prop_assert_eq!(&br.strategy, &set);
                let refr = exact_best_response_reference(&game, &p, agent);
                prop_assert_eq!(current.to_bits(), refr.current_cost.to_bits());
                prop_assert_eq!(br.cost.to_bits(), refr.cost.to_bits());
                prop_assert!(br.nodes >= 1 && br.evaluated >= 1);
            }
        }
    }
}
