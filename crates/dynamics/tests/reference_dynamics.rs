//! The engine's runs against a from-scratch reference run
//! (`common::reference_run`): every rule under every scheduler must
//! produce the same profiles, outcomes, traces and regret series, bit
//! for bit. In these debug builds each engine activation also checks
//! itself against its oracle (the masked scan inside the speculative
//! scan, a fresh `BrSearch` inside the BR bound tables, a fresh Dijkstra
//! behind every synced or repaired warm vector).

mod common;

use common::{assert_same_run, reference_run};
use gncg_core::{Game, Profile};
use gncg_dynamics::{DynamicsConfig, Engine, ResponseRule, Scheduler};

#[test]
fn engine_matches_reference_dynamics() {
    // Three rules × three schedulers × three α regimes (add-heavy,
    // mixed, swap/delete-heavy). One engine serves every run, so context
    // resets across games and rules are exercised too.
    let mut engine = Engine::new();
    for seed in 0..3u64 {
        let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
        for alpha in [0.4, 1.5, 6.0] {
            let game = Game::new(host.clone(), alpha);
            for rule in [
                ResponseRule::ExactBestResponse,
                ResponseRule::BestGreedyMove,
                ResponseRule::AddOnly,
            ] {
                for scheduler in [
                    Scheduler::RoundRobin,
                    Scheduler::MaxGain,
                    Scheduler::RandomOrder { seed: 7 },
                ] {
                    let cfg = DynamicsConfig {
                        rule,
                        scheduler,
                        max_rounds: 400,
                        record_trace: true,
                        regret_meter: true,
                        ..Default::default()
                    };
                    let got = engine.run(&game, Profile::star(9, 0), &cfg);
                    let want = reference_run(&game, Profile::star(9, 0), &cfg);
                    let what = format!("seed {seed} α {alpha} {rule:?} {scheduler:?}");
                    assert_same_run(&got, &want, &what);
                }
            }
        }
    }
}

#[test]
fn swap_heavy_run_matches_reference() {
    // High-α greedy dynamics: about half the applied moves delete or
    // swap an edge, so every warm vector goes through many in-place
    // removal repairs.
    for seed in 0..3u64 {
        let host = gncg_metrics::arbitrary::random_metric(9, 1.0, 4.0, seed);
        let game = Game::new(host, 6.0);
        let cfg = DynamicsConfig {
            max_rounds: 400,
            record_trace: true,
            ..Default::default()
        };
        let got = Engine::new().run(&game, Profile::star(9, 0), &cfg);
        let want = reference_run(&game, Profile::star(9, 0), &cfg);
        assert_same_run(&got, &want, &format!("seed {seed}"));
    }
}
