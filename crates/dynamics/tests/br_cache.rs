//! Equivalence of the persistent BR bound tables (`BrBoundCache`) with
//! a from-scratch exact best response (`exact_best_response`, which
//! rebuilds the network and the whole search state on every call).
//!
//! The cached tables are delta-maintained through arbitrary interleaved
//! insert / remove / swap strategy changes, and past the staleness budget
//! they rebuild outright — in every state the chosen best response and
//! its cost must be **bitwise identical** to a fresh `BrSearch`. These
//! tests drive the public engine surface; the per-node guarantees (bound
//! admissibility at every pruned node, bitwise `d0`, lock-step base
//! graph) are asserted *inside* every cached search by the
//! `debug_assertions` oracle in `BrBoundCache::best_response`, which is
//! active in these test builds — each probe below therefore also runs
//! the full per-node admissibility check.

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use common::{assert_same_run, reference_run};
use gncg_core::response::exact_best_response;
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::engine::{
    agent_is_stable_given_current, DynamicsConfig, Engine, EvalContext, ResponseRule, Scheduler,
};
use gncg_dynamics::BR_STALENESS_BUDGET;

const RULE: ResponseRule = ResponseRule::ExactBestResponse;

/// A game on one of the nine registered factory hosts.
fn factory_game(n: usize) -> impl Strategy<Value = Game> {
    let hosts = gncg_metrics::factory::keys();
    let count = hosts.len();
    (0usize..count, (0u64..1 << 12), 0usize..3).prop_map(move |(host, seed, regime)| {
        let alpha = [0.3, 1.5, 8.0][regime];
        let host = gncg_metrics::build_host(hosts[host], n, seed).expect("registry key");
        Game::new(host, alpha)
    })
}

/// A connected-ish random start: a star plus extra purchases.
fn start_profile(n: usize) -> impl Strategy<Value = Profile> {
    (
        0u32..n as u32,
        proptest::collection::vec(proptest::bool::weighted(0.25), n * n),
    )
        .prop_map(move |(center, bits)| {
            let mut p = Profile::star(n, center);
            for u in 0..n {
                for v in 0..n {
                    if u != v && bits[u * n + v] && !p.has_edge(u as NodeId, v as NodeId) {
                        p.buy(u as NodeId, v as NodeId);
                    }
                }
            }
            p
        })
}

/// A script of raw strategy overwrites: each step assigns agent `a` the
/// strategy encoded by `mask` (bit `v` ⇒ own `(a, v)`), which against the
/// previous strategy is an arbitrary interleaving of edge insertions,
/// removals, and swaps — including ownership flips of co-owned edges.
fn script(n: usize, steps: usize) -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..n as u32, 0u32..1 << n, 0u32..n as u32), steps)
}

fn decode_strategy(a: NodeId, mask: u32, n: usize) -> BTreeSet<NodeId> {
    (0..n as NodeId)
        .filter(|&v| v != a && mask & (1 << v) != 0)
        .collect()
}

/// Whether `u` is stable under a from-scratch exact best response.
fn stable_from_scratch(g: &Game, profile: &Profile, u: NodeId) -> bool {
    !exact_best_response(g, profile, u).improves()
}

/// Applies one script step to `profile` + `ctx` the way the run loop
/// commits moves: profile first, then the context delta.
fn commit(
    game: &Game,
    profile: &mut Profile,
    ctx: &mut EvalContext,
    a: NodeId,
    s: BTreeSet<NodeId>,
) {
    let old = profile.strategy(a).clone();
    profile.set_strategy(a, s);
    ctx.apply_strategy_change(game, profile, a, &old);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached-bound BR ≡ from-scratch BR across all nine factory hosts
    /// under random interleaved insert/remove/swap deltas. Stability
    /// verdicts of a context evolved through the move sequence must agree
    /// step for step with a from-scratch best response on the same
    /// profile (and every cached probe self-checks bitwise against a
    /// fresh `BrSearch` via the debug oracle).
    #[test]
    fn cached_br_matches_rebuild_under_interleaved_deltas(
        g in factory_game(8),
        p0 in start_profile(8),
        steps in script(8, 12),
    ) {
        let n = 8usize;
        let mut profile = p0;
        let mut cached = EvalContext::new(&g, &profile);
        for &(a, mask, probe) in &steps {
            let s = decode_strategy(a, mask, n);
            commit(&g, &mut profile, &mut cached, a, s);
            let want = stable_from_scratch(&g, &profile, probe);
            let got = agent_is_stable_given_current(&g, &profile, &mut cached, probe, RULE);
            prop_assert_eq!(got, want, "agent {} stability diverged", probe);
        }
        // Final sweep: every agent's verdict agrees (every cache that was
        // built replays its whole pending history here).
        for u in 0..n as NodeId {
            let want = stable_from_scratch(&g, &profile, u);
            let got = agent_is_stable_given_current(&g, &profile, &mut cached, u, RULE);
            prop_assert_eq!(got, want, "agent {} stability diverged in final sweep", u);
        }
    }

    /// Full BR-rule dynamics runs off the cached tables are bitwise
    /// identical to the from-scratch reference run (rebuild-every-
    /// activation pricing): same final profile, outcome, move count,
    /// trace and regret series, for every scheduler.
    #[test]
    fn br_dynamics_identical_under_both_policies(
        g in factory_game(7),
        p0 in start_profile(7),
        sched in 0usize..3,
    ) {
        let scheduler = [
            Scheduler::RoundRobin,
            Scheduler::RandomOrder { seed: 7 },
            Scheduler::MaxGain,
        ][sched];
        let cfg = DynamicsConfig {
            rule: RULE,
            scheduler,
            max_rounds: 40,
            record_trace: true,
            regret_meter: true,
            ..Default::default()
        };
        let cached = Engine::new().run(&g, p0.clone(), &cfg);
        let reference = reference_run(&g, p0, &cfg);
        assert_same_run(&cached, &reference, &format!("{scheduler:?}"));
    }
}

/// Drives a single agent's cache past the staleness-rebuild threshold:
/// `BR_STALENESS_BUDGET + 1` distinct removals land between two of its
/// activations, each absorbed as an admissible phantom edge, and the next
/// activation rebuilds the tables outright. Probes on both sides of the
/// threshold self-check bitwise against a fresh search (debug oracle).
#[test]
fn staleness_budget_triggers_rebuild() {
    let extra = BR_STALENESS_BUDGET + 1;
    let n = extra + 2; // agents 1..=extra+1 each buy one chain edge
    let host = gncg_metrics::build_host("unit", n, 0).expect("unit host");
    let g = Game::new(host, 1.2);
    let mut profile = Profile::star(n, 0);
    for i in 1..=extra as NodeId {
        profile.buy(i, i + 1);
    }
    let mut ctx = EvalContext::new(&g, &profile);

    // First activation of agent 0 builds its tables.
    agent_is_stable_given_current(&g, &profile, &mut ctx, 0, RULE);
    let cache = ctx.br_cache(0).expect("cache built on first BR activation");
    assert!(cache.is_built());
    assert_eq!(cache.stale_removals(), 0);

    // Every chain owner drops its extra edge — none incident to agent 0,
    // so each removal goes stale-admissible instead of being repaired.
    for i in 1..=extra as NodeId {
        let mut s = profile.strategy(i).clone();
        assert!(s.remove(&(i + 1)));
        commit(&g, &mut profile, &mut ctx, i, s);
        assert_eq!(
            ctx.br_cache(0).unwrap().stale_removals(),
            i as usize,
            "each removal must add exactly one phantom edge"
        );
    }
    assert!(ctx.br_cache(0).unwrap().stale_removals() > BR_STALENESS_BUDGET);

    // The next activation crosses the budget: full rebuild, zero
    // staleness, and a verdict matching a from-scratch context.
    let got = agent_is_stable_given_current(&g, &profile, &mut ctx, 0, RULE);
    assert_eq!(ctx.br_cache(0).unwrap().stale_removals(), 0);
    assert_eq!(got, stable_from_scratch(&g, &profile, 0));
}

/// Re-probing an agent with zero intervening deltas returns the
/// memoized result (observable via `memo_is_warm`; in these debug
/// builds every hit is still oracle-checked against a fresh search),
/// and any committed delta kills the memo of every other agent's cache.
/// Verdicts match a from-scratch best response throughout.
#[test]
fn repeat_probes_memoize_until_a_delta_lands() {
    let n = 9usize;
    let host = gncg_metrics::build_host("metric", n, 5).expect("metric host");
    let g = Game::new(host, 1.3);
    let mut profile = Profile::star(n, 0);
    let mut ctx = EvalContext::new(&g, &profile);

    // Two identical sweeps: the second is all memo hits.
    for _ in 0..2 {
        for u in 0..n as NodeId {
            let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
            let want = stable_from_scratch(&g, &profile, u);
            assert_eq!(got, want);
        }
    }
    for u in 0..n as NodeId {
        assert!(ctx.br_cache(u).unwrap().memo_is_warm());
    }

    // One committed purchase: every *other* agent's memo dies on the
    // spot (the mover's own survives until its next probe, where the
    // changed strategy misses it), and verdicts keep matching.
    let mut s = profile.strategy(3).clone();
    s.insert(7);
    let old = profile.strategy(3).clone();
    profile.set_strategy(3, s);
    ctx.apply_strategy_change(&g, &profile, 3, &old);
    for u in 0..n as NodeId {
        if u != 3 {
            assert!(
                !ctx.br_cache(u).unwrap().memo_is_warm(),
                "agent {u}'s memo must die with the committed insert"
            );
        }
    }
    for u in 0..n as NodeId {
        let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
        let want = stable_from_scratch(&g, &profile, u);
        assert_eq!(got, want, "agent {u} diverged after the memo-killing delta");
        assert!(ctx.br_cache(u).unwrap().memo_is_warm());
    }
}

/// Under the budget, removals stay stale (weaker pruning, never a wrong
/// answer): probes keep matching a from-scratch best response while phantoms are
/// live, without triggering a rebuild.
#[test]
fn stale_bounds_stay_admissible_under_budget() {
    let n = 10usize;
    let host = gncg_metrics::build_host("metric", n, 3).expect("metric host");
    let g = Game::new(host, 1.0);
    let mut profile = Profile::star(n, 0);
    for i in 1..6 as NodeId {
        profile.buy(i, i + 1);
    }
    let mut ctx = EvalContext::new(&g, &profile);

    // Build every agent's tables once.
    for u in 0..n as NodeId {
        let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
        let want = stable_from_scratch(&g, &profile, u);
        assert_eq!(got, want);
    }
    // Three removals, probing after each: the phantoms stay resident.
    for i in 1..4 as NodeId {
        let mut s = profile.strategy(i).clone();
        assert!(s.remove(&(i + 1)));
        let old = profile.strategy(i).clone();
        profile.set_strategy(i, s);
        ctx.apply_strategy_change(&g, &profile, i, &old);
        for u in 0..n as NodeId {
            let got = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
            let want = stable_from_scratch(&g, &profile, u);
            assert_eq!(got, want, "agent {u} diverged with phantoms live");
        }
        // Probed caches of non-movers kept the removal stale, not repaired.
        assert!(ctx.br_cache(0).unwrap().stale_removals() as u32 >= i - 1);
    }
}
