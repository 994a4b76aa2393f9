//! A from-scratch reference of the sequential dynamics, shared by the
//! integration tests.
//!
//! Every activation rebuilds the network from the profile and prices the
//! agent's move through the oracles of `gncg_core::response`:
//! `exact_best_response` for the exact best response, and
//! `best_move_among_given_current` over the rule's move space for the
//! greedy and add rules. Nothing is cached between activations, so an
//! [`Engine`](gncg_dynamics::Engine) run that matches this one bit for
//! bit shows that the warm vectors, their removal repairs, the
//! speculative scan and the BR bound tables changed nothing. Only the
//! default `SpeculativePricing::FullSum` is modelled, and checkpoints are
//! not.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use gncg_core::cost::{agent_cost, agent_cost_in};
use gncg_core::response::{best_move_among_given_current, exact_best_response};
use gncg_core::{Game, Move, NodeId, Profile};
use gncg_dynamics::cycle::CycleDetector;
use gncg_dynamics::trace::{Trace, TraceEntry};
use gncg_dynamics::{DynamicsConfig, Outcome, ResponseRule, RunResult, Scheduler};

/// Agent `u`'s improving change under `rule`: the new strategy and the
/// agent's cost before and after it.
fn change(
    game: &Game,
    profile: &Profile,
    u: NodeId,
    rule: ResponseRule,
) -> Option<(BTreeSet<NodeId>, f64, f64)> {
    let moves = match rule {
        ResponseRule::ExactBestResponse => {
            let br = exact_best_response(game, profile, u);
            return br
                .improves()
                .then_some((br.strategy, br.current_cost, br.cost));
        }
        ResponseRule::BestGreedyMove => Move::greedy_moves(profile, u),
        ResponseRule::AddOnly => Move::add_moves(profile, u),
    };
    let network = profile.build_network(game);
    let current = agent_cost_in(game, profile, &network, u).total();
    best_move_among_given_current(game, profile, &network, u, current, &moves)
        .map(|(m, c)| (m.apply(u, profile.strategy(u)), current, c))
}

/// The improvement a change realizes (`f64::INFINITY` when it first
/// makes the cost finite).
fn gain(before: f64, after: f64) -> f64 {
    if before.is_infinite() && after.is_finite() {
        f64::INFINITY
    } else {
        before - after
    }
}

/// Agent `u`'s regret: the improvement of its improving change, or 0.
fn regret(game: &Game, profile: &Profile, u: NodeId, rule: ResponseRule) -> f64 {
    change(game, profile, u, rule).map_or(0.0, |(_, before, after)| gain(before, after))
}

/// Runs `cfg` from `start` with the round, scheduler, cycle and
/// regret-series semantics of `Engine::run`, pricing every activation
/// from scratch. Each applied move's reported cost is checked against the
/// agent's cost in the profile it produced.
pub fn reference_run(game: &Game, start: Profile, cfg: &DynamicsConfig) -> RunResult {
    let n = game.n() as NodeId;
    let mut profile = start;
    let mut detector = CycleDetector::new();
    detector.observe(&profile);
    let mut rng = match cfg.scheduler {
        Scheduler::RandomOrder { seed } => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut trace = cfg.record_trace.then(Trace::default);
    let mut regret_series = cfg.regret_meter.then(Vec::new);
    let mut moves = 0usize;
    let (mut outcome, mut rounds) = (Outcome::MaxRoundsReached, cfg.max_rounds);
    'run: for round in 0..cfg.max_rounds {
        let order: Vec<NodeId> = match cfg.scheduler {
            Scheduler::RoundRobin => (0..n).collect(),
            Scheduler::RandomOrder { .. } => {
                let mut v: Vec<NodeId> = (0..n).collect();
                v.shuffle(rng.as_mut().expect("rng set for RandomOrder"));
                v
            }
            Scheduler::MaxGain => {
                // The largest regret wins; ties go to the smaller id.
                let mut best: Option<(NodeId, f64)> = None;
                for u in 0..n {
                    let r = regret(game, &profile, u, cfg.rule);
                    if r > 0.0 && best.is_none_or(|(_, b)| r > b) {
                        best = Some((u, r));
                    }
                }
                best.map(|(u, _)| u).into_iter().collect()
            }
        };
        let mut moved = false;
        for u in order {
            let Some((strategy, before, after)) = change(game, &profile, u, cfg.rule) else {
                continue;
            };
            profile.set_strategy(u, strategy);
            let realized = agent_cost(game, &profile, u).total();
            assert_eq!(
                after.to_bits(),
                realized.to_bits(),
                "agent {u}: priced {after}, realized {realized}"
            );
            moves += 1;
            moved = true;
            if let Some(t) = trace.as_mut() {
                t.entries.push(TraceEntry {
                    round,
                    agent: u,
                    cost_before: before,
                    cost_after: after,
                    strategy_size: profile.strategy(u).len(),
                });
            }
            if let Some(recurrence) = detector.observe(&profile) {
                (outcome, rounds) = (Outcome::Cycle { recurrence }, round + 1);
                break 'run;
            }
        }
        if let Some(series) = regret_series.as_mut() {
            let max = (0..n)
                .map(|u| regret(game, &profile, u, cfg.rule))
                .fold(0.0, f64::max);
            series.push(max);
        }
        if !moved {
            (outcome, rounds) = (Outcome::Converged { rounds: round + 1 }, round + 1);
            break;
        }
    }
    RunResult {
        profile,
        outcome,
        rounds,
        moves,
        trace,
        regret_series,
        checkpoints: None,
    }
}

/// Asserts that two runs agree bit for bit: profile, outcome, rounds,
/// moves, and (when recorded) every trace entry and regret.
pub fn assert_same_run(engine: &RunResult, reference: &RunResult, what: &str) {
    assert_eq!(engine.profile, reference.profile, "{what}: profile");
    assert_eq!(engine.outcome, reference.outcome, "{what}: outcome");
    assert_eq!(engine.rounds, reference.rounds, "{what}: rounds");
    assert_eq!(engine.moves, reference.moves, "{what}: moves");
    let entries = |r: &RunResult| -> Option<Vec<[u64; 5]>> {
        r.trace.as_ref().map(|t| {
            t.entries
                .iter()
                .map(|e| {
                    let (before, after) = (e.cost_before.to_bits(), e.cost_after.to_bits());
                    let size = e.strategy_size as u64;
                    [e.round as u64, e.agent.into(), before, after, size]
                })
                .collect()
        })
    };
    assert_eq!(entries(engine), entries(reference), "{what}: trace");
    let bits = |r: &RunResult| -> Option<Vec<u64>> {
        r.regret_series
            .as_ref()
            .map(|s| s.iter().map(|x| x.to_bits()).collect())
    };
    assert_eq!(bits(engine), bits(reference), "{what}: regret series");
}
