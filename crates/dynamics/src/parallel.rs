//! Parallel batch simulation: sweeps over α grids and instance seeds fan
//! out on the rayon pool. Independent runs make this embarrassingly
//! parallel — the hpc workhorse of the experiment harness.

use rayon::prelude::*;

use gncg_core::{Game, Profile, SpeculativePricing};
use gncg_graph::SymMatrix;

use crate::engine::{run, DynamicsConfig, Engine, RunResult};

/// One point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The α used.
    pub alpha: f64,
    /// Index of the instance within the batch (e.g. the seed).
    pub instance: usize,
    /// Run result.
    pub result: RunResult,
    /// Social cost of the final profile.
    pub social_cost: f64,
}

/// Runs the dynamics for every `(host, α)` combination in parallel,
/// starting each run from `start_of(instance_idx, n)`.
pub fn sweep<F>(
    hosts: &[SymMatrix],
    alphas: &[f64],
    cfg: &DynamicsConfig,
    start_of: F,
) -> Vec<SweepPoint>
where
    F: Fn(usize, usize) -> Profile + Sync,
{
    sweep_priced(hosts, alphas, cfg, SpeculativePricing::FullSum, start_of)
}

/// [`sweep`] with an explicit speculative-pricing policy
/// ([`SpeculativePricing`]): each job's engine runs with `pricing`
/// installed, so a whole α/seed grid can run bounded-horizon
/// ([`SpeculativePricing::RegionDelta`]) pricing — still bitwise
/// deterministic at every thread count, under that policy's own byte
/// stream (sub-ulp ties may resolve differently from the default).
fn sweep_priced<F>(
    hosts: &[SymMatrix],
    alphas: &[f64],
    cfg: &DynamicsConfig,
    pricing: SpeculativePricing,
    start_of: F,
) -> Vec<SweepPoint>
where
    F: Fn(usize, usize) -> Profile + Sync,
{
    let jobs: Vec<(usize, f64)> = (0..hosts.len())
        .flat_map(|i| alphas.iter().map(move |&a| (i, a)))
        .collect();
    jobs.into_par_iter()
        .map(|(i, alpha)| {
            let game = Game::new(hosts[i].clone(), alpha);
            let start = start_of(i, game.n());
            let mut engine = Engine::new();
            engine.context_mut().set_pricing(pricing);
            let result = engine.run(&game, start, cfg);
            let social_cost = gncg_core::cost::social_cost(&game, &result.profile);
            SweepPoint {
                alpha,
                instance: i,
                result,
                social_cost,
            }
        })
        .collect()
}

/// Sequential reference implementation of [`sweep`] (for the parallelism
/// ablation bench and determinism tests).
pub fn sweep_sequential<F>(
    hosts: &[SymMatrix],
    alphas: &[f64],
    cfg: &DynamicsConfig,
    start_of: F,
) -> Vec<SweepPoint>
where
    F: Fn(usize, usize) -> Profile,
{
    let mut out = Vec::new();
    for (i, host) in hosts.iter().enumerate() {
        for &alpha in alphas {
            let game = Game::new(host.clone(), alpha);
            let start = start_of(i, game.n());
            let result = run(&game, start, cfg);
            let social_cost = gncg_core::cost::social_cost(&game, &result.profile);
            out.push(SweepPoint {
                alpha,
                instance: i,
                result,
                social_cost,
            });
        }
    }
    out
}

/// Fraction of sweep points that converged.
pub fn convergence_rate(points: &[SweepPoint]) -> f64 {
    if points.is_empty() {
        return 1.0;
    }
    points.iter().filter(|p| p.result.converged()).count() as f64 / points.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ResponseRule, Scheduler};

    fn cfg() -> DynamicsConfig {
        DynamicsConfig {
            rule: ResponseRule::BestGreedyMove,
            scheduler: Scheduler::RoundRobin,
            max_rounds: 300,
            ..DynamicsConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let hosts: Vec<SymMatrix> = (0..3)
            .map(|s| gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, s))
            .collect();
        let alphas = [0.5, 1.0, 2.0];
        let par = sweep(&hosts, &alphas, &cfg(), |_, n| Profile::star(n, 0));
        let seq = sweep_sequential(&hosts, &alphas, &cfg(), |_, n| Profile::star(n, 0));
        assert_eq!(par.len(), seq.len());
        // Jobs are generated in the same order; results must agree exactly.
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.alpha, s.alpha);
            assert_eq!(p.instance, s.instance);
            assert_eq!(p.result.profile, s.result.profile);
            assert_eq!(p.social_cost, s.social_cost);
        }
    }

    #[test]
    fn priced_sweep_is_deterministic_per_policy() {
        let hosts: Vec<SymMatrix> = (0..2)
            .map(|s| gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, s + 10))
            .collect();
        let alphas = [0.5, 2.0];
        // FullSum through the priced entry point is the plain sweep.
        let full = sweep_priced(
            &hosts,
            &alphas,
            &cfg(),
            SpeculativePricing::FullSum,
            |_, n| Profile::star(n, 0),
        );
        let plain = sweep(&hosts, &alphas, &cfg(), |_, n| Profile::star(n, 0));
        for (a, b) in full.iter().zip(&plain) {
            assert_eq!(a.result.profile, b.result.profile);
            assert_eq!(a.social_cost, b.social_cost);
        }
        // RegionDelta parallel matches its own sequential replay bitwise.
        let rd = sweep_priced(
            &hosts,
            &alphas,
            &cfg(),
            SpeculativePricing::RegionDelta,
            |_, n| Profile::star(n, 0),
        );
        let mut engine = Engine::new();
        engine
            .context_mut()
            .set_pricing(SpeculativePricing::RegionDelta);
        let mut k = 0;
        for host in &hosts {
            for &alpha in &alphas {
                let game = Game::new(host.clone(), alpha);
                let result = engine.run(&game, Profile::star(game.n(), 0), &cfg());
                assert_eq!(rd[k].result.profile, result.profile);
                assert_eq!(
                    rd[k].social_cost,
                    gncg_core::cost::social_cost(&game, &result.profile)
                );
                k += 1;
            }
        }
    }

    #[test]
    fn convergence_rate_counts() {
        let hosts = vec![gncg_metrics::unit::unit_host(5)];
        let points = sweep(&hosts, &[2.0], &cfg(), |_, n| Profile::star(n, 0));
        assert_eq!(points.len(), 1);
        assert_eq!(convergence_rate(&points), 1.0);
        assert_eq!(convergence_rate(&[]), 1.0);
    }
}
