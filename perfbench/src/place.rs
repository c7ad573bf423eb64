//! `place`: the paper's offline placement (§IV-A ILP with the greedy
//! incumbent), solved cold to proven optimality over a seeded set of
//! ClassBench instances at 256 and 512 total rules.
//!
//! Untraced, each request is one `par::solve` plus the
//! `verify_placement` gate a caller runs before deploying; the traced
//! phase runs the same pipeline stage by stage from here and checks it
//! reaches the same objective.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flowplace_bench::scenario::{build_instance, ScenarioConfig};
use flowplace_core::candidates::build_candidates_with_graphs;
use flowplace_core::encode_ilp::{EncodeOptions, IlpEncoding};
use flowplace_core::tables::emit_tables;
use flowplace_core::verify::verify_placement;
use flowplace_core::{greedy, par, Instance, Objective, PlacementOptions, PlacerEngine};
use flowplace_core::{DependencyEncoding, SolveStatus};
use flowplace_ctrl::DataPlane;
use flowplace_milp::{presolve, solve_lp, solve_mip_lazy, LpOutcome, MipStatus};

use crate::stats::{mean, median, ms, peak_rss_mb, percentile, ratio, sub_seed, text_hash};
use crate::{Args, Outcome};

/// Instances per size. The 512-rule group is by far the larger one:
/// the median and 90th-percentile requests then fall inside one size
/// class, and the percentile rests on enough instances that one slow
/// instance does not decide it.
const SMALL: usize = 4;
const LARGE: usize = 16;
/// Passes every untraced phase makes over the set at least.
const MIN_PASSES: usize = 2;
/// Random packets per route in the verification gate (the
/// controller's default).
const VERIFY_PACKETS: usize = 8;
/// Safety net only: every instance concludes in well under a second;
/// one that stops at this limit counts as a failure.
const TIME_LIMIT: Duration = Duration::from_secs(30);

/// The instance shapes: 16 tenants on a k=4 fat-tree, 2 paths each,
/// with ample capacity so the LP root closes the gap (1 B&B node).
fn config(seed: u64, index: usize) -> ScenarioConfig {
    let (rules_per_policy, capacity) = if index < SMALL { (16, 64) } else { (32, 128) };
    ScenarioConfig {
        k: 4,
        ingresses: 16,
        paths_per_ingress: 2,
        rules_per_policy,
        shared_rules: 0,
        capacity,
        seed: sub_seed(seed, index as u64),
    }
}

fn build_set(seed: u64) -> Vec<Instance> {
    (0..SMALL + LARGE)
        .map(|i| build_instance(&config(seed, i)))
        .collect()
}

fn options() -> PlacementOptions {
    let mut options = PlacementOptions {
        engine: PlacerEngine::Ilp,
        greedy_warm_start: true,
        ..PlacementOptions::default()
    };
    options.mip.time_limit = Some(TIME_LIMIT);
    options
}

/// One untraced request's result.
struct Solved {
    ok: bool,
    objective: f64,
    solve: Duration,
    total: Duration,
}

fn solve_one(
    instance: &Instance,
    index: usize,
    options: &PlacementOptions,
) -> (Solved, Option<flowplace_core::Placement>) {
    let start = Instant::now();
    let out = par::solve(instance, Objective::default(), options).outcome;
    let solve = start.elapsed();
    let verified = match &out.placement {
        Some(p) => verify_placement(instance, p, VERIFY_PACKETS, index as u64).is_ok(),
        None => false,
    };
    let total = start.elapsed();
    let solved = Solved {
        ok: out.status == SolveStatus::Optimal && verified,
        objective: out.objective.unwrap_or(f64::NAN),
        solve,
        total,
    };
    (solved, out.placement)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let seconds = args.phase_seconds();
    let mut setup = Vec::new();
    let mut set = build_set(args.seed);
    let options = options();
    let rules: usize = set.iter().map(Instance::total_policy_rules).sum();
    let routes: usize = set.iter().map(|i| i.routes().len()).sum();
    println!(
        "place: seed {} — {} instances ({} x 256 rules, {} x 512 rules), {} rules, {} routes",
        args.seed,
        set.len(),
        SMALL,
        LARGE,
        rules,
        routes
    );

    // Untraced phase: whole passes over the set until the time is up,
    // at least MIN_PASSES. Each instance keeps its fastest pass, which
    // filters out interference from other processes on the machine.
    // Every pass builds the set anew for set-up, each instance just
    // before its solve, so a pass's set-up time spreads over the pass
    // like its solves do. The first pass also computes the work
    // fingerprint.
    let n = set.len();
    let mut place_ms = vec![f64::INFINITY; n];
    let mut epoch_ms = vec![f64::INFINITY; n];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut request_total_ms = 0.0;
    let mut objectives: Vec<f64> = Vec::new();
    let mut deployed = 0usize;
    let mut dumps = String::new();
    let mut consistent = true;
    let started = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || started.elapsed() < seconds {
        let mut setup_s = 0.0;
        for (i, instance) in set.iter_mut().enumerate() {
            let start = Instant::now();
            *instance = build_instance(&config(args.seed, i));
            setup_s += start.elapsed().as_secs_f64();
            let (solved, placement) = solve_one(instance, i, &options);
            attempted += 1;
            if !solved.ok {
                failed += 1;
                println!("place: FAIL instance {i} not optimal or not verified");
            }
            place_ms[i] = place_ms[i].min(ms(solved.solve));
            epoch_ms[i] = epoch_ms[i].min(ms(solved.total));
            request_total_ms += ms(solved.total);
            if pass == 0 {
                objectives.push(solved.objective);
                if let Some(p) = placement {
                    let dp = deploy(instance, &p);
                    deployed += dp.total_occupancy();
                    dumps.push_str(&dp.dump());
                }
            } else if solved.objective.to_bits() != objectives[i].to_bits() {
                consistent = false;
                println!("place: FAIL instance {i} objective changed between passes");
            }
        }
        setup.push(setup_s);
        pass += 1;
    }
    let objective_sum: f64 = objectives.iter().sum();
    println!(
        "place: {} solves in {} passes, {} failed, fail_rate {}",
        attempted,
        pass,
        failed,
        ratio(failed as f64, attempted as f64)
    );
    println!(
        "place: fingerprint tiers none, objective_sum {objective_sum}, tcam_entries {deployed}, dump_hash {}",
        text_hash(&dumps)
    );

    let mut metrics = BTreeMap::new();
    let mut correct = failed == 0 && consistent;
    if args.trace {
        let traced = traced_phase(&set, &options, &objectives, seconds);
        // Plain means on both sides: the traced requests are single
        // measurements, not fastest-of-passes.
        let untraced_epoch = request_total_ms / attempted as f64;
        let fail_rate = ratio(failed as f64, attempted as f64);
        let requests = attempted;
        correct &= traced.ok;
        attempted += traced.requests;
        metrics = traced.metrics;
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (metrics["trace.epoch_ms_mean"] - untraced_epoch) / untraced_epoch,
        );
        metrics.insert(
            "ctrl.unattributed.ms",
            untraced_epoch - metrics["trace.span_ms_mean"],
        );
        metrics.insert("place_ms_p50", median(&place_ms));
        metrics.insert(
            "placements_per_s",
            n as f64 * 1e3 / place_ms.iter().sum::<f64>(),
        );
        metrics.insert("fail_rate", fail_rate);
        metrics.insert("input.rules", rules as f64);
        metrics.insert("input.routes", routes as f64);
        metrics.insert("input.instances", n as f64);
        metrics.insert("input.tenants", (16 * n) as f64);
        metrics.insert("input.events", requests as f64);
        metrics.insert("input.epochs", requests as f64);
    } else {
        metrics.insert("setup_s", median(&setup));
        metrics.insert("epoch_ms_p50", median(&epoch_ms));
        metrics.insert("epoch_ms_p90", percentile(&epoch_ms, 0.9));
        metrics.insert(
            "events_per_s",
            n as f64 * 1e3 / epoch_ms.iter().sum::<f64>(),
        );
        metrics.insert("tcam_entries", deployed as f64);
    }
    metrics.insert("peak_rss_mb", peak_rss_mb());
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// Installs a placement's tables on an empty dataplane (the deployed
/// state the fingerprint and `tcam_entries` describe).
fn deploy(instance: &Instance, placement: &flowplace_core::Placement) -> DataPlane {
    let tables = emit_tables(instance, placement).expect("verified placement emits tables");
    let target = DataPlane::target_from_tables(&tables);
    let mut dp = DataPlane::new(instance.topology().capacities());
    let diff = dp.diff_to(&target).expect("target fits the capacities");
    dp.apply(&diff).expect("fresh dataplane accepts the diff");
    dp
}

struct Traced {
    ok: bool,
    requests: u64,
    metrics: BTreeMap<&'static str, f64>,
}

/// Runs the ILP pipeline stage by stage over whole passes of the set,
/// timing each public entry point. Per-layer values are means per
/// request; counts are means per instance.
fn traced_phase(
    set: &[Instance],
    options: &PlacementOptions,
    objectives: &[f64],
    seconds: Duration,
) -> Traced {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *sums.entry(k).or_insert(0.0) += v;
    let mut requests = 0usize;
    let mut wall = Vec::new();
    let mut spans = Vec::new();
    let mut ok = true;
    let encode = EncodeOptions {
        dependency: options.dependency,
        merging: options.merging,
        merge_linking: options.merge_linking,
    };
    let started = Instant::now();
    let mut pass = 0;
    while pass == 0 || started.elapsed() < seconds {
        for (i, instance) in set.iter().enumerate() {
            let request = Instant::now();
            let t = Instant::now();
            let graphs = par::build_depgraphs(instance, 1);
            let depgraph = ms(t.elapsed());
            let edges: usize = graphs.values().map(|g| g.edge_count()).sum();

            let t = Instant::now();
            let candidates = build_candidates_with_graphs(instance, &graphs);
            let cands = ms(t.elapsed());
            let vars: usize = candidates.values().map(|s| s.len()).sum();

            let t = Instant::now();
            let enc = IlpEncoding::build_with_candidates(
                instance,
                &Objective::default(),
                &encode,
                &candidates,
            );
            let encode_ms = ms(t.elapsed());

            let t = Instant::now();
            let mut mip = options.mip.clone();
            if let Some(p) = greedy::greedy_place(instance) {
                mip.initial_solution = enc.warm_start(&p);
            }
            let greedy_ms = ms(t.elapsed());

            let t = Instant::now();
            let reduced = presolve(&enc.model);
            let presolve_ms = ms(t.elapsed());
            std::hint::black_box(&reduced);

            let t = Instant::now();
            let root = solve_lp(&enc.model);
            let lp_ms = ms(t.elapsed());
            if !matches!(root, LpOutcome::Optimal(_)) {
                ok = false;
                println!("place: FAIL traced root LP of instance {i} did not solve");
            }

            let lazy = options.dependency == DependencyEncoding::Lazy;
            let t = Instant::now();
            let out = solve_mip_lazy(&enc.model, &mip, &mut |vals| {
                if lazy {
                    enc.violated_dependencies(vals)
                } else {
                    Vec::new()
                }
            });
            let bnb_ms = ms(t.elapsed());

            let t = Instant::now();
            let placement = out.best.as_ref().map(|b| enc.decode(&b.values));
            let decode_ms = ms(t.elapsed());

            let objective = out.best.as_ref().map_or(f64::NAN, |b| b.objective);
            if out.status != MipStatus::Optimal || objective.to_bits() != objectives[i].to_bits() {
                ok = false;
                println!("place: FAIL traced solve of instance {i} disagrees with par::solve");
            }
            let Some(placement) = placement else {
                continue;
            };

            let t = Instant::now();
            let tables = emit_tables(instance, &placement);
            let emit_ms = ms(t.elapsed());
            let entries: usize = tables
                .as_ref()
                .map_or(0, |ts| ts.iter().map(|t| t.len()).sum());

            let t = Instant::now();
            if verify_placement(instance, &placement, VERIFY_PACKETS, i as u64).is_err() {
                ok = false;
                println!("place: FAIL traced verify of instance {i}");
            }
            let verify_ms = ms(t.elapsed());

            wall.push(ms(request.elapsed()));
            // The spans on the untraced request's path (`par::solve`
            // then verify); presolve, the separate root LP and the
            // table emission are extra calls the traced phase makes.
            spans.push(depgraph + cands + encode_ms + greedy_ms + bnb_ms + decode_ms + verify_ms);
            requests += 1;
            add("core.depgraph.ms", depgraph);
            add("core.depgraph.edges", edges as f64);
            add("core.candidates.ms", cands);
            add("core.candidates.vars", vars as f64);
            add("core.encode_ilp.ms", encode_ms);
            add("core.encode_ilp.rows", enc.model.num_constraints() as f64);
            add("core.encode_ilp.cols", enc.model.num_vars() as f64);
            add("core.greedy.ms", greedy_ms);
            add("milp.presolve.ms", presolve_ms);
            add("milp.lp.ms", lp_ms);
            add("milp.bnb.ms", bnb_ms);
            add("milp.lp_iterations", out.lp_iterations as f64);
            add("milp.nodes", out.nodes as f64);
            add("core.decode.ms", decode_ms);
            add("core.tables.emit.ms", emit_ms);
            add("core.tables.entries", entries as f64);
            add("core.verify.ms", verify_ms);
            add("core.verify.routes", instance.routes().len() as f64);
        }
        pass += 1;
    }
    let n = requests.max(1) as f64;
    let mut metrics: BTreeMap<&'static str, f64> =
        sums.into_iter().map(|(k, v)| (k, v / n)).collect();
    metrics.insert(
        "milp.us_per_lp_iteration",
        1e3 * ratio(metrics["milp.bnb.ms"], metrics["milp.lp_iterations"]),
    );
    metrics.insert("trace.epoch_ms_mean", mean(&wall));
    metrics.insert("trace.span_ms_mean", mean(&spans));
    Traced {
        ok,
        requests: requests as u64,
        metrics,
    }
}
