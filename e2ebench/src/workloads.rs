//! The named workloads: their scenario specs and the `service-mix`
//! submit schedule, all derived from the workload seed alone.

use gncg_suite::scenario::{CertifyMode, RuleSpec, ScenarioSpec, SchedSpec};

/// The seed whose output digests are committed in `references.txt`.
pub const DEFAULT_SEED: u64 = 0;
/// Compute-pool threads for every workload (pinned before first use).
pub const POOL_THREADS: usize = 1;
/// Daemon worker threads of the `service-mix` server.
pub const DAEMON_WORKERS: usize = 1;
/// Distinct specs a `service-mix` session submits cold.
pub const SERVICE_NEW_SPECS: usize = 100;
/// Cells of one `service-mix` spec (1 host × 1 n × 2 α × 2 seeds).
pub const SERVICE_SPEC_CELLS: usize = 4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `large-n` preset's n = 1024 add-rule cell.
    LargeNAdd,
    /// Exact best response on three hosts at n ∈ {18, 20}.
    BrExact,
    /// Greedy dynamics on swap-heavy hosts with the regret meter on.
    GreedySwapMeter,
    /// An in-process daemon driven by one closed-loop client.
    ServiceMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LargeNAdd,
        Workload::BrExact,
        Workload::GreedySwapMeter,
        Workload::ServiceMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeNAdd => "large-n-add",
            Workload::BrExact => "br-exact",
            Workload::GreedySwapMeter => "greedy-swap-meter",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The specs whose cells the workload's output check covers, in order:
    /// the one grid of a compute workload, or every distinct spec the
    /// `service-mix` schedule submits.
    pub fn specs(self, seed: u64) -> Vec<ScenarioSpec> {
        match self {
            Workload::LargeNAdd => vec![ScenarioSpec {
                name: "large-n-add".into(),
                ns: vec![1024],
                base_seed: seed,
                ..ScenarioSpec::large_n()
            }],
            // Six instance seeds at n ∈ {18, 20} rather than two at
            // n ∈ {20, 22}: the same BR-dominated cells, but averaged
            // over three times as many instances, so a pass's wall moves
            // half as much from one workload seed to the next.
            Workload::BrExact => vec![ScenarioSpec {
                name: "br-exact".into(),
                hosts: vec!["r2".into(), "metric".into(), "clusters".into()],
                ns: vec![18, 20],
                alphas: vec![0.8, 2.0, 6.0],
                rules: vec![RuleSpec::Br],
                schedulers: vec![SchedSpec::RoundRobin],
                seeds: (0..6).collect(),
                max_rounds: 60,
                base_seed: seed,
                certify: CertifyMode::Full,
                ..ScenarioSpec::default()
            }],
            Workload::GreedySwapMeter => vec![ScenarioSpec {
                name: "greedy-swap-meter".into(),
                hosts: vec!["r2".into(), "grid".into(), "clusters".into()],
                ns: vec![48],
                alphas: vec![2.0, 4.0, 8.0],
                rules: vec![RuleSpec::Greedy],
                schedulers: vec![SchedSpec::RoundRobin],
                seeds: vec![0, 1],
                max_rounds: 500,
                base_seed: seed,
                certify: CertifyMode::Full,
                regret_meter: true,
                ..ScenarioSpec::default()
            }],
            Workload::ServiceMix => (0..SERVICE_NEW_SPECS)
                .map(|k| service_spec(seed, k))
                .collect(),
        }
    }

    /// Cells across [`Workload::specs`].
    pub fn expected_cells(self) -> usize {
        match self {
            Workload::LargeNAdd => 1,
            Workload::BrExact => 108,
            Workload::GreedySwapMeter => 18,
            Workload::ServiceMix => SERVICE_NEW_SPECS * SERVICE_SPEC_CELLS,
        }
    }
}

/// The `k`-th distinct `service-mix` spec: a small greedy grid whose seed
/// axis is `{2k, 2k + 1}`, so no two specs share a cell digest.
pub fn service_spec(seed: u64, k: usize) -> ScenarioSpec {
    let k = k as u64;
    ScenarioSpec {
        name: format!("service-mix-{k}"),
        hosts: vec!["r2".into()],
        ns: vec![16],
        alphas: vec![1.0, 2.0],
        rules: vec![RuleSpec::Greedy],
        schedulers: vec![SchedSpec::RoundRobin],
        seeds: vec![2 * k, 2 * k + 1],
        max_rounds: 1_000,
        base_seed: seed,
        certify: CertifyMode::Full,
        ..ScenarioSpec::default()
    }
}

/// One step of the `service-mix` client session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Submit spec `k` for the first time (every cell simulated).
    New(usize),
    /// Resubmit the earlier spec `k` (every cell a cache hit).
    Resubmit(usize),
}

impl Step {
    /// The index of the spec the step submits.
    pub fn spec(self) -> usize {
        match self {
            Step::New(k) | Step::Resubmit(k) => k,
        }
    }
}

/// The interleaved session: even steps submit the next new spec, odd
/// steps resubmit an earlier one drawn from a seeded stream.
pub fn service_schedule(seed: u64) -> Vec<Step> {
    let mut x = seed ^ 0x5EB1_CE5E_ED00_0001;
    let mut steps = Vec::with_capacity(2 * SERVICE_NEW_SPECS);
    for k in 0..SERVICE_NEW_SPECS {
        steps.push(Step::New(k));
        x = splitmix64(x);
        steps.push(Step::Resubmit((x % (k as u64 + 1)) as usize));
    }
    steps
}

/// splitmix64, the stream behind the schedule draws.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
