//! Equivalence of the engine's exact best response — a `BrSearch` per
//! agent plus a memo keyed on the context's move counter — with a
//! from-scratch search through the optimistic-network oracle
//! (`exact_best_response_given_current` on a freshly built network).
//!
//! Contexts are driven through arbitrary interleaved insert / remove /
//! swap strategy changes; in every state the verdicts, regrets and whole
//! runs must match the from-scratch search. In these debug builds every
//! `BrSearch` and every memo hit is also asserted bitwise (strategy and
//! cost) against the oracle inside the engine.

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use common::{assert_same_run, reference_run};
use gncg_core::cost::agent_cost_in;
use gncg_core::response::{exact_best_response_given_current, BestResponse};
use gncg_core::{Game, NodeId, Profile};
use gncg_dynamics::engine::{
    agent_is_stable_given_current, DynamicsConfig, Engine, EvalContext, RegretMeter, ResponseRule,
    Scheduler,
};

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

/// `u`'s best response from scratch: a fresh network and the
/// optimistic-network oracle.
fn br_from_scratch(g: &Game, profile: &Profile, u: NodeId) -> BestResponse {
    let network = profile.build_network(g);
    let current = agent_cost_in(g, profile, &network, u).total();
    exact_best_response_given_current(g, profile, &network, u, current)
}

/// Whether `u` is stable under a from-scratch exact best response.
fn stable_from_scratch(g: &Game, profile: &Profile, u: NodeId) -> bool {
    !br_from_scratch(g, profile, u).improves()
}

/// `u`'s regret from scratch, as the regret meter defines it.
fn regret_from_scratch(g: &Game, profile: &Profile, u: NodeId) -> f64 {
    let br = br_from_scratch(g, profile, u);
    if !br.improves() {
        0.0
    } else if br.current_cost.is_infinite() {
        f64::INFINITY
    } else {
        br.current_cost - br.cost
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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

    /// The engine's BR ≡ from-scratch BR across all nine factory hosts
    /// under random interleaved insert/remove/swap deltas. Stability
    /// verdicts of a context evolved through the move sequence must agree
    /// step for step with a from-scratch best response on the same
    /// profile, memo hits included.
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
        // Final sweep: every agent's verdict agrees.
        for u in 0..n as NodeId {
            let want = stable_from_scratch(&g, &profile, u);
            let got = agent_is_stable_given_current(&g, &profile, &mut cached, u, RULE);
            prop_assert_eq!(got, want, "agent {} stability diverged in final sweep", u);
        }
    }

    /// Full BR-rule dynamics runs are bitwise identical to the
    /// from-scratch reference run (network rebuilt and priced through the
    /// oracle at every activation): same final profile, outcome, move
    /// count, trace and regret series, for every scheduler.
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

/// A probe with no committed move since the agent's last search returns
/// the memoized result, which is bitwise the first answer; after a move by
/// another agent the next probe searches afresh and equals a from-scratch
/// search. The regret meter probes every agent, so its per-agent regrets
/// carry each answer's cost bits.
#[test]
fn repeat_probes_memoize_until_a_delta_lands() {
    let n = 9usize;
    let host = gncg_metrics::build_host("metric", n, 5).expect("metric host");
    let g = Game::new(host, 1.3);
    let mut profile = Profile::star(n, 0);
    let mut ctx = EvalContext::new(&g, &profile);
    let mut meter = RegretMeter::new();
    let fresh = |profile: &Profile| -> Vec<f64> {
        (0..n as NodeId)
            .map(|u| regret_from_scratch(&g, profile, u))
            .collect()
    };

    // Probe, then re-probe with nothing committed in between: the memo
    // answers, bit for bit the first answer, and the single-agent
    // verdicts agree with it.
    meter.measure(&g, &profile, &mut ctx, RULE);
    let first = meter.regrets().to_vec();
    assert_eq!(bits(&first), bits(&fresh(&profile)));
    meter.measure(&g, &profile, &mut ctx, RULE);
    assert_eq!(bits(meter.regrets()), bits(&first));
    for u in 0..n as NodeId {
        let stable = agent_is_stable_given_current(&g, &profile, &mut ctx, u, RULE);
        assert_eq!(stable, first[u as usize] == 0.0, "agent {u}");
    }

    // A move by agent 3 changes every other agent's network: each probe
    // now equals a fresh search on the new profile.
    let mut s = profile.strategy(3).clone();
    assert!(s.insert(7));
    commit(&g, &mut profile, &mut ctx, 3, s);
    meter.measure(&g, &profile, &mut ctx, RULE);
    let after = meter.regrets().to_vec();
    assert_eq!(bits(&after), bits(&fresh(&profile)));
    assert_ne!(
        bits(&after),
        bits(&first),
        "the move must change some regret"
    );
    meter.measure(&g, &profile, &mut ctx, RULE);
    assert_eq!(bits(meter.regrets()), bits(&after));
}

/// The memo answers only a probe whose current cost matches the stored
/// one: a profile with the same network but other edge ownership (each
/// leaf buys its own spoke) is searched afresh, not read off the memo of
/// the star the context was built for. The regret meter probes every
/// agent, so its regrets carry each answer's cost bits.
#[test]
fn memo_misses_on_a_profile_with_other_ownership() {
    let n = 9usize;
    let host = gncg_metrics::build_host("metric", n, 5).expect("metric host");
    let g = Game::new(host, 1.3);
    let star = Profile::star(n, 0);
    let mut leaves_pay = Profile::empty(n);
    for v in 1..n as NodeId {
        leaves_pay.buy(v, 0);
    }
    let (a, b) = (star.build_network(&g), leaves_pay.build_network(&g));
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            assert_eq!(a.has_edge(u, v), b.has_edge(u, v), "same network");
        }
    }
    let fresh = |profile: &Profile| -> Vec<u64> {
        let regrets: Vec<f64> = (0..n as NodeId)
            .map(|u| regret_from_scratch(&g, profile, u))
            .collect();
        bits(&regrets)
    };
    let mut ctx = EvalContext::new(&g, &star);
    let mut meter = RegretMeter::new();
    meter.measure(&g, &star, &mut ctx, RULE);
    assert_eq!(bits(meter.regrets()), fresh(&star));
    meter.measure(&g, &leaves_pay, &mut ctx, RULE);
    assert_eq!(bits(meter.regrets()), fresh(&leaves_pay));
    assert_ne!(
        fresh(&leaves_pay),
        fresh(&star),
        "the ownership change must move some regret"
    );
}
