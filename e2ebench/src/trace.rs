//! The traced run: every cell re-driven through the public calls that
//! `Runner::run_cell_full` makes, with a span around each call into a
//! layer, then probes on the cell's final state outside the cell's spans,
//! then a probing `service-mix` session.
//!
//! Fidelity is checked, not assumed: each re-driven line must equal the
//! untraced `run_grid` line of the same cell byte for byte. Because the
//! untraced pass runs first and the probes use their own context, a probe
//! that disturbed the engine would show as a mismatch on a later cell.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use gncg_core::{cost, equilibrium, Game, NodeId, Profile};
use gncg_dynamics::cycle::CycleDetector;
use gncg_dynamics::{
    agent_is_stable_given_current, DynamicsConfig, Engine, EvalContext, Outcome, RegretMeter,
    RunResult, SpeculativePricing,
};
use gncg_suite::grid::run_grid;
use gncg_suite::scenario::{Cell, CellResult, CertifyMode, RuleSpec};

use crate::check::OutputCheck;
use crate::measure::{offline_lines, read};
use crate::report::{peak_rss_mb, Report};
use crate::service::run_session;
use crate::stats::{median, summarize};
use crate::workloads::{service_schedule, splitmix64, Workload};

const MB: f64 = 1024.0 * 1024.0;

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug)]
struct Span {
    /// Layer call name.
    name: &'static str,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    start: Duration,
    /// End, relative to the tracer's epoch.
    end: Duration,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; returns its id for [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    fn duration(&self, i: usize) -> f64 {
        (self.spans[i].end - self.spans[i].start).as_secs_f64()
    }

    /// `(count, total s, self s)` of the spans named `name`; self time is
    /// a span's duration minus what its child spans cover.
    fn totals(&self, name: &str) -> (usize, f64, f64) {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.duration(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0, 0.0, 0.0), |(n, total, own), (i, _)| {
                let d = self.duration(i);
                (n + 1, total + d, own + d - child[i])
            })
    }

    /// One line per span name: count, total and self seconds.
    fn table(&self) -> String {
        let names: BTreeSet<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names
            .into_iter()
            .map(|name| {
                let (n, total, own) = self.totals(name);
                format!("{name:<22} {n:>6} spans {total:>12.6} s total {own:>12.6} s self\n")
            })
            .collect()
    }
}

/// The ⌈√n⌉-agent sample `CertifyMode::Sampled` checks, derived the way
/// the runner derives it (a drift shows as a fidelity failure).
fn sampled_agents(n: usize, cell_seed: u64) -> Vec<NodeId> {
    let root = n.isqrt();
    let k = (root + usize::from(root * root < n)).max(2).min(n);
    let mut chosen: BTreeSet<NodeId> = BTreeSet::new();
    let mut x = cell_seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    while chosen.len() < k {
        x = splitmix64(x);
        chosen.insert((x % n as u64) as NodeId);
    }
    chosen.into_iter().collect()
}

/// Re-drives one cell with a span around each layer call; returns its
/// JSONL line (no newline), the game, and the run.
fn redrive(
    tracer: &mut Tracer,
    engine: &mut Engine,
    cell: &Cell,
) -> Result<(String, Game, RunResult), String> {
    let span = tracer.open("cell", None);
    let host = tracer.span("factory.build_host", span, || {
        gncg_metrics::factory::build_host(&cell.host, cell.n, cell.cell_seed)
    })?;
    let game = Game::new(host, cell.alpha);
    let cfg = DynamicsConfig {
        rule: cell.rule.rule(),
        scheduler: cell.scheduler.scheduler(cell.cell_seed),
        max_rounds: cell.max_rounds,
        regret_meter: cell.regret_meter,
        checkpoint_every: cell.checkpoint_every,
        ..DynamicsConfig::default()
    };
    engine.context_mut().set_pricing(if cell.horizon_pricing {
        SpeculativePricing::RegionDelta
    } else {
        SpeculativePricing::FullSum
    });
    let started = Instant::now();
    let result = tracer.span("engine.run", span, || {
        engine.run(&game, Profile::star(game.n(), 0), &cfg)
    });
    let wall_micros = started.elapsed().as_micros();
    let social = tracer.span("cost.social_cost", span, || {
        cost::social_cost(&game, &result.profile)
    });
    let certified = tracer.span("certify", span, || {
        result.converged()
            && match cell.certify {
                CertifyMode::Off => false,
                CertifyMode::Full => match cell.rule {
                    RuleSpec::Br => equilibrium::is_nash_equilibrium(&game, &result.profile),
                    RuleSpec::Greedy => equilibrium::is_greedy_equilibrium(&game, &result.profile),
                    RuleSpec::Add => equilibrium::is_add_only_equilibrium(&game, &result.profile),
                },
                CertifyMode::Sampled => {
                    let ctx = engine.context_mut();
                    sampled_agents(cell.n, cell.cell_seed).into_iter().all(|u| {
                        agent_is_stable_given_current(
                            &game,
                            &result.profile,
                            ctx,
                            u,
                            cell.rule.rule(),
                        )
                    })
                }
            }
    });
    let outcome = match result.outcome {
        Outcome::Converged { .. } => "converged",
        Outcome::Cycle { .. } => "cycle",
        Outcome::MaxRoundsReached => "max_rounds",
    };
    let cell_result = CellResult {
        cell: cell.index,
        host: cell.host.clone(),
        n: cell.n,
        alpha: cell.alpha,
        rule: cell.rule,
        scheduler: cell.scheduler,
        seed: cell.seed,
        outcome,
        rounds: result.rounds,
        moves: result.moves,
        social_cost: social.is_finite().then_some(social),
        certified,
        max_regret: result.regret_series.clone(),
        checkpoints: result.checkpoints.clone(),
        wall_micros,
    };
    let line = tracer.span("scenario.to_jsonl", span, || cell_result.to_jsonl());
    tracer.close(span);
    Ok((line, game, result))
}

/// Counts and probe timings over the re-driven cells.
#[derive(Debug, Default)]
struct Probes {
    cells: usize,
    rounds: usize,
    activations: usize,
    moves: usize,
    cycles: usize,
    certified: usize,
    jsonl_bytes: usize,
    warm_resident_bytes: usize,
    br_resident_bytes: usize,
    profiles_observed: usize,
    observe_us: Vec<f64>,
    cycle_computed_s: f64,
    agents: usize,
    warm_build_s: f64,
    scan_s: f64,
    improvable: usize,
    meter_pass_s: f64,
    meter_computed_s: f64,
}

impl Probes {
    /// Records the cell's counts and runs the probes on its final state,
    /// on `ctx` (never the engine's own context).
    fn record(
        &mut self,
        ctx: &mut EvalContext,
        engine: &Engine,
        cell: &Cell,
        game: &Game,
        result: &RunResult,
        line: &str,
    ) {
        let n = game.n();
        let profile = &result.profile;
        let rule = cell.rule.rule();
        self.cells += 1;
        self.rounds += result.rounds;
        // Round-robin activates every agent each round; a cycle cell's
        // final round is counted whole although it aborts mid-round.
        self.activations += result.rounds * n;
        self.moves += result.moves;
        self.cycles += usize::from(matches!(result.outcome, Outcome::Cycle { .. }));
        self.certified += usize::from(line.contains("\"certified\":true"));
        self.jsonl_bytes += line.len() + 1;
        self.warm_resident_bytes = self.warm_resident_bytes.max(engine.warm_resident_bytes());

        // The engine observes the start profile and one profile per move.
        let observed = result.moves + 1;
        let t = Instant::now();
        black_box(CycleDetector::new().observe(black_box(profile)));
        let observe_s = t.elapsed().as_secs_f64();
        self.profiles_observed += observed;
        self.observe_us.push(observe_s * 1e6);
        self.cycle_computed_s += observe_s * observed as f64;

        let t = Instant::now();
        ctx.reset(game, profile);
        ctx.ensure_all_warm();
        self.warm_build_s += t.elapsed().as_secs_f64();
        self.agents += n;

        ctx.set_pricing(if cell.horizon_pricing {
            SpeculativePricing::RegionDelta
        } else {
            SpeculativePricing::FullSum
        });
        let t = Instant::now();
        for u in 0..n as NodeId {
            if !agent_is_stable_given_current(game, profile, ctx, u, rule) {
                self.improvable += 1;
            }
        }
        self.scan_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(RegretMeter::new().measure(game, profile, ctx, rule));
        let pass_s = t.elapsed().as_secs_f64();
        self.meter_pass_s += pass_s;
        self.meter_computed_s += pass_s * result.rounds as f64;
        self.br_resident_bytes = self.br_resident_bytes.max(ctx.br_resident_bytes());
    }
}

fn value_f64(v: &gncg_service::json::Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(gncg_service::json::Value::as_f64)
        .ok_or_else(|| format!("metrics snapshot lacks {}", path.join(".")))
}

/// Runs the traced measurement of `workload` and returns the per-layer
/// metrics. Fidelity and output failures land in `check`.
pub fn run(
    workload: Workload,
    seed: u64,
    dir: &Path,
    check: &mut OutputCheck,
) -> Result<Report, String> {
    let specs = workload.specs(seed);

    // The untraced pass gives the reference bytes; it runs again after
    // the traced pass, warm as the traced pass was, as the overhead
    // baseline.
    let untraced_pass = |tag: &str| -> Result<(f64, Vec<String>), String> {
        let mut wall = 0.0;
        let mut per_spec = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let out = dir.join(format!("{tag}-{i}.jsonl"));
            let t = Instant::now();
            run_grid(spec, &out, false)?;
            wall += t.elapsed().as_secs_f64();
            per_spec.push(read(&out)?);
        }
        Ok((wall, per_spec))
    };
    let (_, per_spec) = untraced_pass("untraced")?;
    // The process peak so far is what one untraced `run_grid` process
    // reaches: read it before the traced pass and the probes allocate.
    let peak_mb = peak_rss_mb();
    let untraced = per_spec.concat();
    check.check_pass("untraced pass", &untraced);
    let expected: Vec<&str> = untraced.split_inclusive('\n').collect();

    // The traced pass: one engine per spec, as one runner per shard.
    let mut tracer = Tracer::default();
    let mut probes = Probes::default();
    let mut ctx = EvalContext::default();
    let mut i = 0;
    for spec in &specs {
        let mut engine = Engine::new();
        for cell in spec.expand() {
            let (line, game, result) = redrive(&mut tracer, &mut engine, &cell)?;
            let want = expected.get(i).copied().unwrap_or("");
            check.event(want.strip_suffix('\n') == Some(line.as_str()), || {
                format!("traced cell {i}: line differs from the untraced run")
            });
            probes.record(&mut ctx, &engine, &cell, &game, &result, &line);
            i += 1;
        }
    }
    check.event(i == expected.len(), || {
        format!(
            "traced pass produced {i} lines, untraced {}",
            expected.len()
        )
    });
    eprint!("{}", tracer.table());
    let (untraced_s, again) = untraced_pass("baseline")?;
    check.check_pass("baseline pass", &again.concat());

    // The service layer, probed with the service-mix schedule.
    let svc_specs = Workload::ServiceMix.specs(seed);
    let session = run_session(
        &svc_specs,
        &service_schedule(seed),
        &dir.join("service"),
        true,
    )?;
    let offline = if workload == Workload::ServiceMix {
        per_spec
    } else {
        offline_lines(&svc_specs)?
    };
    session.check(check, &offline);

    let mut r = Report::default();
    r.push("peak_rss_mb", peak_mb, "MB");
    let (calls, _, build_self) = tracer.totals("factory.build_host");
    let (_, cell_s, _) = tracer.totals("cell");
    let (_, _, run_self) = tracer.totals("engine.run");
    let (_, _, certify_self) = tracer.totals("certify");
    let (_, _, social_self) = tracer.totals("cost.social_cost");
    let (_, _, jsonl_self) = tracer.totals("scenario.to_jsonl");
    let p = &probes;
    let agents = p.agents as f64;
    r.push("factory.build_host.calls", calls as f64, "count");
    r.push("factory.build_host.self_s", build_self, "s");
    r.push("engine.run.self_s", run_self, "s");
    r.push("engine.run.share", run_self / cell_s, "fraction");
    r.push("engine.rounds", p.rounds as f64, "count");
    r.push("engine.activations", p.activations as f64, "count");
    r.push("engine.moves", p.moves as f64, "count");
    r.push(
        "engine.move_rate",
        p.moves as f64 / p.activations as f64,
        "fraction",
    );
    r.push(
        "engine.us_per_activation",
        run_self * 1e6 / p.activations as f64,
        "us",
    );
    r.push("engine.cycles", p.cycles as f64, "count");
    r.push(
        "engine.warm_resident_mb",
        p.warm_resident_bytes as f64 / MB,
        "MB",
    );
    r.push(
        "engine.br_resident_mb",
        p.br_resident_bytes as f64 / MB,
        "MB",
    );
    r.push(
        "cycle.profiles_observed",
        p.profiles_observed as f64,
        "count",
    );
    r.push_sampled(
        "cycle.observe_us",
        median(&p.observe_us).unwrap_or(0.0),
        "us",
        p.observe_us.len(),
    );
    r.push("cycle.self_s_computed", p.cycle_computed_s, "s");
    r.push(
        "graph.warm_build.per_agent_us",
        p.warm_build_s * 1e6 / agents,
        "us",
    );
    r.push("response.scan.per_agent_us", p.scan_s * 1e6 / agents, "us");
    r.push(
        "response.scan.improvable_frac",
        p.improvable as f64 / agents,
        "fraction",
    );
    r.push("meter.pass_s", p.meter_pass_s, "s");
    r.push("meter.self_s_computed", p.meter_computed_s, "s");
    r.push("certify.self_s", certify_self, "s");
    r.push("certify.share", certify_self / cell_s, "fraction");
    r.push(
        "certify.certified_frac",
        p.certified as f64 / p.cells as f64,
        "fraction",
    );
    r.push("cost.social_cost.self_s", social_self, "s");
    r.push("scenario.to_jsonl.self_s", jsonl_self, "s");
    r.push("scenario.jsonl_bytes", p.jsonl_bytes as f64, "bytes");
    r.push("grid.stream_overhead_s", untraced_s - cell_s, "s");

    let sampled = |values: Vec<f64>| (median(&values).unwrap_or(0.0), values.len());
    let (ping, n_ping) = sampled(session.ping_us.clone());
    let (ack, n_ack) = sampled(session.acks_ms(false));
    let (hit_ack, n_hit_ack) = sampled(session.acks_ms(true));
    let (stream, n_stream) = sampled(session.streams_ms(false));
    r.push_sampled("service.ping_us", ping, "us", n_ping);
    r.push_sampled("service.submit_ack_ms", ack, "ms", n_ack);
    r.push_sampled("service.hit_ack_ms", hit_ack, "ms", n_hit_ack);
    r.push_sampled("service.stream_ms", stream, "ms", n_stream);
    let cold = summarize(&session.totals_ms(false)).ok_or("the probing session ran no job")?;
    r.push_sampled("job_p90_ms", cold.p90, "ms", cold.samples);
    let hits = summarize(&session.totals_ms(true)).ok_or("the probing session served no hit")?;
    r.push_sampled("hit_p50_ms", hits.p50, "ms", hits.samples);
    r.push_sampled("hit_p90_ms", hits.p90, "ms", hits.samples);
    let metrics = session
        .metrics
        .as_ref()
        .ok_or("the probing session returned no metrics snapshot")?;
    r.push(
        "service.cache_hit_ratio",
        value_f64(metrics, &["cache_hit_ratio"])?,
        "fraction",
    );
    r.push(
        "service.worker_busy_fraction",
        value_f64(metrics, &["worker_busy_fraction"])?,
        "fraction",
    );
    let jobs = value_f64(metrics, &["job_wall_us", "count"])?;
    r.push_sampled(
        "service.job_wall_us_mean",
        value_f64(metrics, &["job_wall_us", "sum_us"])? / jobs.max(1.0),
        "us",
        jobs as usize,
    );
    r.push("trace.overhead_frac", cell_s / untraced_s - 1.0, "fraction");
    Ok(r)
}
