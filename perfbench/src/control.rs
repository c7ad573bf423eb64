//! `churn` and `storm`: the controller runtime driven in a closed loop.
//!
//! A fleet of independently seeded deployments takes epochs in turn.
//! For each, the caller queues a batch of `batch_size` (8) events, waits
//! for the epoch to commit, and only then sends the next batch. On
//! `churn` it also runs a slice of a seeded Zipf flow stream through the
//! cache tier after every commit.
//!
//! A run is a series of identical passes: each brings up a fresh fleet
//! (timed for `setup_s`) and drives it through the same fixed sequence
//! of epochs. Every epoch keeps its fastest pass, which filters out
//! interference from other processes on the machine, and every pass
//! must end in the same dataplanes.
//!
//! The traced phase runs passes of its own on the same seed and, after
//! each `run_epoch`, re-invokes every layer's public entry point on that
//! epoch's own inputs and outputs, timing each call from here. The
//! epoch itself is never instrumented.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flowplace_bench::scenario::{build_instance, ScenarioConfig};
use flowplace_bench::shard::tenant_burst_events;
use flowplace_core::candidates::build_candidates_with_graphs;
use flowplace_core::encode_sat::SatEncoding;
use flowplace_core::tables::emit_tables;
use flowplace_core::verify::verify_placement;
use flowplace_core::{incremental, par, Instance, Objective, Placement, PlacementOptions};
use flowplace_core::{PlacerEngine, WarmCache};
use flowplace_ctrl::{
    CacheConfig, CachePolicy, Controller, CtrlOptions, DataPlane, EpochReport, Event, EventOutcome,
    RuleCache, Tier,
};
use flowplace_routing::{shortest, Route, RouteSet};
use flowplace_topo::{EntryPortId, SwitchId};
use flowplace_traffic::{FlowEvent, TrafficConfig};

use crate::stats::{mean, median, ms, peak_rss_mb, percentile, ratio, sub_seed, text_hash};
use crate::{Args, Outcome};

/// Which controller workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 4 fat tenants, add/remove bursts, cache tier on.
    Churn,
    /// 16 thin tenants, reroute storms under capacity pressure.
    Storm,
}

/// Passes every phase makes at least; it keeps making them until its
/// time is up.
const MIN_PASSES: usize = 3;
/// Instances in the cold-placement set behind `place_ms_p50`, and
/// solves of each (fastest kept).
const COLD_SET: usize = 32;
const COLD_REPEATS: usize = 3;
/// Epochs each member runs in a pass, back to back so its working set
/// stays in the core's cache while it runs. A pass has 128 (`churn`) or
/// 512 (`storm`) epochs, so `epoch_ms_p90` rests on more than ten
/// samples beyond it.
const CHUNK: usize = 8;
/// Flows run through the cache tier after each `churn` commit.
const FLOWS_PER_EPOCH: usize = 2048;
/// Length of each member's pre-generated flow stream (cycled if a pass
/// outlasts it).
const FLOW_STREAM: u64 = 65_536;
/// Burst rounds in the (cycled) `churn` event trace.
const CHURN_ROUNDS: usize = 64;

/// The size of one workload: `fleet` independently seeded
/// deployments, each `tenants` policies of `rules` rules on a k=4
/// fat-tree with uniform switch `capacity`. A run averages over every
/// member, so one seed's figures do not hinge on one policy draw.
struct Size {
    fleet: usize,
    tenants: usize,
    rules: usize,
    capacity: usize,
}

fn size(shape: Shape) -> Size {
    match shape {
        Shape::Churn => Size {
            fleet: 16,
            tenants: 4,
            rules: 256,
            capacity: 512,
        },
        Shape::Storm => Size {
            fleet: 64,
            tenants: 16,
            rules: 32,
            capacity: 75,
        },
    }
}

fn scenario(shape: Shape, seed: u64, member: usize) -> ScenarioConfig {
    let size = size(shape);
    ScenarioConfig {
        k: 4,
        ingresses: size.tenants,
        paths_per_ingress: 2,
        rules_per_policy: size.rules,
        shared_rules: 0,
        capacity: size.capacity,
        seed: sub_seed(seed, 100 + member as u64),
    }
}

/// SAT engine (the ILP cannot bring up the 4k shape; see the README),
/// one thread, no portfolio; the cache tier at 25% of capacity on
/// `churn` only.
fn ctrl_options(shape: Shape) -> CtrlOptions {
    let placement = PlacementOptions {
        engine: PlacerEngine::Sat,
        ..PlacementOptions::default()
    };
    let cache = match shape {
        Shape::Churn => CacheConfig {
            enabled: true,
            capacity: size(shape).capacity / 4,
            policy: CachePolicy::DepFreq,
            ..CacheConfig::default()
        },
        Shape::Storm => CacheConfig::default(),
    };
    CtrlOptions {
        placement,
        cache,
        ..CtrlOptions::default()
    }
}

/// The event source: a cycled burst trace (`churn`) or reroute rounds
/// generated from the controller's current load (`storm`).
struct Load {
    shape: Shape,
    seed: u64,
    trace: Vec<Event>,
    next: usize,
    pending: Vec<Event>,
    round: u64,
}

impl Load {
    fn new(shape: Shape, seed: u64) -> Load {
        let trace = match shape {
            Shape::Churn => tenant_burst_events(size(shape).tenants, CHURN_ROUNDS),
            Shape::Storm => Vec::new(),
        };
        Load {
            shape,
            seed,
            trace,
            next: 0,
            pending: Vec::new(),
            round: 0,
        }
    }

    fn next_batch(&mut self, ctrl: &Controller, size: usize) -> Vec<Event> {
        match self.shape {
            Shape::Churn => (0..size)
                .map(|_| {
                    let e = self.trace[self.next % self.trace.len()].clone();
                    self.next += 1;
                    e
                })
                .collect(),
            Shape::Storm => {
                while self.pending.len() < size {
                    let round = self.storm_round(ctrl);
                    self.pending.extend(round);
                }
                self.pending.drain(..size).collect()
            }
        }
    }

    /// One `storm` round: every tenant rerouted to fresh seeded shortest
    /// paths, then the most-loaded switch shrunk to 3/4 of its load and
    /// restored.
    fn storm_round(&mut self, ctrl: &Controller) -> Vec<Event> {
        let instance = ctrl.instance();
        let fresh = shortest::routes_per_ingress(
            instance.topology(),
            2,
            sub_seed(self.seed, 1000 + self.round),
        );
        self.round += 1;
        let mut events: Vec<Event> = (0..size(Shape::Storm).tenants)
            .map(|t| Event::Reroute {
                ingress: EntryPortId(t),
                routes: fresh.iter().filter(|r| r.ingress.0 == t).cloned().collect(),
            })
            .collect();
        let load = ctrl.placement().per_switch_load(instance);
        let (hot, &most) = load
            .iter()
            .enumerate()
            .max_by_key(|&(i, l)| (*l, std::cmp::Reverse(i)))
            .expect("the fat-tree has switches");
        let hot = SwitchId(hot);
        events.push(Event::CapacityChange {
            switch: hot,
            capacity: most * 3 / 4,
        });
        events.push(Event::CapacityChange {
            switch: hot,
            capacity: size(Shape::Storm).capacity,
        });
        events
    }
}

fn flow_stream(seed: u64) -> Vec<FlowEvent> {
    let rate = 100_000;
    flowplace_traffic::generate(&TrafficConfig {
        seed,
        rate,
        duration_ms: FLOW_STREAM * 1000 / rate,
        zipf: 1.1,
        ingresses: size(Shape::Churn).tenants,
        width: 16,
        flows_per_ingress: 64,
        flowlet_len: 4,
        burst: None,
    })
}

/// Tier index into the per-tier counters (order of [`Tier::ALL`]).
fn tier_index(t: Tier) -> usize {
    Tier::ALL
        .iter()
        .position(|x| *x == t)
        .expect("Tier::ALL is complete")
}

/// What one measured phase produced: per-epoch times are the fastest
/// of the phase's passes, counters are those of one pass (every pass
/// does the same work), `attempted` and `failed` cover every pass.
#[derive(Default)]
struct Phase {
    /// Milliseconds per epoch (submit + `run_epoch`), in pass order.
    epoch_ms: Vec<f64>,
    /// Milliseconds in `process_flows` after each epoch.
    flow_ms: Vec<f64>,
    /// Seconds per fleet bring-up, one per pass.
    setup_s: Vec<f64>,
    passes: usize,
    attempted: u64,
    events: u64,
    failed: u64,
    tiers: [u64; 4],
    flows: u64,
    lookups: u64,
    hits: u64,
    misses: u64,
    miss_batches: u64,
    fingerprint: Option<String>,
    tcam_entries: usize,
    /// `VmHWM` at the end of the first pass, so the figure covers the
    /// same work on every run of a seed.
    peak_rss_mb: f64,
    /// Every output check passed on every pass.
    correct: bool,
    /// Sum of every pass's epoch milliseconds.
    epoch_ms_total: f64,
    /// Warm-start memo hits and lookups and reused candidate sets over
    /// one pass, summed over the fleet.
    warm: [u64; 3],
}

impl Phase {
    /// Folds in a later pass of the same phase; `false` if that pass
    /// did different work.
    fn merge(&mut self, pass: Phase) -> bool {
        self.passes += pass.passes;
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.correct &= pass.correct;
        self.epoch_ms_total += pass.epoch_ms_total;
        for (a, b) in self.epoch_ms.iter_mut().zip(&pass.epoch_ms) {
            *a = a.min(*b);
        }
        for (a, b) in self.flow_ms.iter_mut().zip(&pass.flow_ms) {
            *a = a.min(*b);
        }
        pass.fingerprint == self.fingerprint && pass.epoch_ms.len() == self.epoch_ms.len()
    }
}

/// Per-layer sums of the traced phase (divided by epochs at the end).
#[derive(Default)]
struct Layers {
    sums: BTreeMap<&'static str, f64>,
    spans: Vec<f64>,
    unreplayed: u64,
    lookup_ns: f64,
    lookup_count: u64,
}

impl Layers {
    fn add(&mut self, k: &'static str, v: f64) {
        *self.sums.entry(k).or_insert(0.0) += v;
    }
}

/// The state the traced phase snapshots before each epoch.
struct PreEpoch {
    instance: Instance,
    placement: Placement,
    dataplane: DataPlane,
    cache: RuleCache,
}

/// Re-applies one settled event through the core entry point matching
/// its tier. `None` when the event has no such entry point (delegation
/// rescues), after which the epoch's remaining events are not replayed.
fn reapply(
    event: &Event,
    tier: Tier,
    instance: &Instance,
    placement: &Placement,
    options: &PlacementOptions,
    warm: &WarmCache,
) -> Option<(Instance, Placement)> {
    let full = |updated: Instance| {
        let out = par::solve_with_cache(&updated, Objective::default(), options, Some(warm));
        out.outcome.placement.map(|p| (updated, p))
    };
    match (event, tier) {
        (Event::AddRule { ingress, rule }, Tier::Greedy) => {
            let out = incremental::add_rule_greedy(instance, placement, *ingress, *rule).ok()?;
            Some((out.instance, out.placement?))
        }
        (Event::RemoveRule { ingress, rule }, Tier::Greedy) => {
            let out = incremental::remove_rule(instance, placement, *ingress, *rule).ok()?;
            Some((out.instance, out.placement?))
        }
        (Event::Reroute { ingress, routes }, Tier::Restricted | Tier::Full) => {
            let out = incremental::reroute_policy_cached(
                instance,
                placement,
                *ingress,
                routes.clone(),
                options,
                Objective::default(),
                Some(warm),
            )
            .ok()?;
            if tier == Tier::Restricted {
                return Some((out.instance, out.placement?));
            }
            let all: RouteSet = instance
                .routes()
                .iter()
                .filter(|r| r.ingress != *ingress)
                .chain(routes.iter())
                .cloned()
                .collect();
            full(instance.with_routes(all).ok()?)
        }
        (Event::CapacityChange { switch, capacity }, Tier::Greedy | Tier::Full) => {
            let mut topology = instance.topology().clone();
            topology.set_capacity(*switch, *capacity);
            let policies = instance.policies().map(|(l, q)| (l, q.clone())).collect();
            let updated = Instance::new(topology, instance.routes().clone(), policies).ok()?;
            if tier == Tier::Greedy {
                Some((updated, placement.clone()))
            } else {
                full(updated)
            }
        }
        _ => None,
    }
}

/// Times each layer's public entry point on one committed epoch.
fn trace_epoch(
    layers: &mut Layers,
    pre: PreEpoch,
    report: &EpochReport,
    ctrl: &Controller,
    warm: &WarmCache,
) {
    let options = &ctrl.options().placement;
    let t = Instant::now();
    let (mut instance, mut placement) = (pre.instance, pre.placement);
    for (event, outcome) in &report.outcomes {
        let EventOutcome::Applied(tier) = outcome else {
            continue;
        };
        match reapply(event, *tier, &instance, &placement, options, warm) {
            Some((i, p)) => (instance, placement) = (i, p),
            None => {
                layers.unreplayed += 1;
                break;
            }
        }
    }
    let incremental_ms = ms(t.elapsed());

    let post_instance = ctrl.instance();
    let post_placement = ctrl.placement();
    let t = Instant::now();
    let tables = emit_tables(post_instance, post_placement).expect("committed placement emits");
    let emit_ms = ms(t.elapsed());
    let entries: usize = tables.iter().map(|t| t.len()).sum();

    let t = Instant::now();
    let verified = verify_placement(
        post_instance,
        post_placement,
        ctrl.options().verify_packets,
        report.epoch,
    );
    let verify_ms = ms(t.elapsed());
    std::hint::black_box(&verified);

    let t = Instant::now();
    let target = DataPlane::target_from_tables(&tables);
    let mut dataplane = pre.dataplane;
    dataplane.set_capacities(&post_instance.topology().capacities());
    let diff = dataplane.diff_to(&target);
    let diff_ms = ms(t.elapsed());
    let (mut apply_ms, mut installed, mut removed) = (0.0, 0, 0);
    if let Ok(diff) = diff {
        let t = Instant::now();
        if let Ok(applied) = dataplane.apply(&diff) {
            installed = applied.installed;
            removed = applied.removed;
        }
        apply_ms = ms(t.elapsed());
    }

    let mut resync_ms = 0.0;
    if ctrl.options().cache.enabled {
        let mut cache = pre.cache;
        let t = Instant::now();
        cache.set_target(&target);
        resync_ms = ms(t.elapsed());
        std::hint::black_box(&cache);
    }

    let spans = incremental_ms + emit_ms + verify_ms + diff_ms + apply_ms + resync_ms;
    layers.spans.push(spans);
    layers.add("core.incremental.ms", incremental_ms);
    layers.add("core.tables.emit.ms", emit_ms);
    layers.add("core.tables.entries", entries as f64);
    layers.add("core.verify.ms", verify_ms);
    layers.add("core.verify.routes", post_instance.routes().len() as f64);
    layers.add("ctrl.dataplane.diff.ms", diff_ms);
    layers.add("ctrl.dataplane.apply.ms", apply_ms);
    layers.add("ctrl.dataplane.installed", installed as f64);
    layers.add("ctrl.dataplane.removed", removed as f64);
    layers.add("ctrl.cache.resync.ms", resync_ms);
}

/// Times cache lookups alone: the flow slice replayed against a copy of
/// the cache (no inserts, no miss handling) on each flow's ECMP route.
fn trace_lookups(layers: &mut Layers, cache: &RuleCache, instance: &Instance, flows: &[FlowEvent]) {
    let mut cache = cache.clone();
    let by_ingress: BTreeMap<EntryPortId, Vec<&Route>> = instance
        .policies()
        .map(|(l, _)| {
            let routes = instance.routes().paths_from(l);
            (
                l,
                routes
                    .into_iter()
                    .map(|id| instance.routes().route(id))
                    .collect(),
            )
        })
        .collect();
    let before = cache.counters().lookups;
    let t = Instant::now();
    for ev in flows {
        let Some(paths) = by_ingress.get(&ev.ingress).filter(|p| !p.is_empty()) else {
            continue;
        };
        let route = paths[(ev.packet.bits() % paths.len() as u128) as usize];
        for &s in &route.switches {
            std::hint::black_box(cache.lookup(s, ev.ingress, &ev.packet));
        }
    }
    layers.lookup_ns += t.elapsed().as_secs_f64() * 1e9;
    layers.lookup_count += cache.counters().lookups - before;
}

/// The SAT bring-up pipeline run stage by stage on the initial
/// instance (what `Controller::with_instance` solves).
fn trace_bring_up(instance: &Instance, options: &PlacementOptions) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let t = Instant::now();
    let graphs = par::build_depgraphs(instance, 1);
    m.insert("core.depgraph.ms", ms(t.elapsed()));
    m.insert(
        "core.depgraph.edges",
        graphs.values().map(|g| g.edge_count()).sum::<usize>() as f64,
    );
    let t = Instant::now();
    let candidates = build_candidates_with_graphs(instance, &graphs);
    m.insert("core.candidates.ms", ms(t.elapsed()));
    m.insert(
        "core.candidates.vars",
        candidates.values().map(|s| s.len()).sum::<usize>() as f64,
    );
    let t = Instant::now();
    let mut enc = SatEncoding::build_with_candidates_opts(
        instance,
        options.merging,
        &candidates,
        options.sat,
    );
    m.insert("core.encode_sat.ms", ms(t.elapsed()));
    m.insert("core.encode_sat.vars", enc.num_placement_vars() as f64);
    m.insert("core.encode_sat.constraints", enc.constraint_count() as f64);
    let t = Instant::now();
    let solved = enc.solve();
    m.insert("pbsat.solve.ms", ms(t.elapsed()));
    assert!(solved.is_some(), "the bring-up instance is satisfiable");
    let stats = enc.solver_stats();
    m.insert("pbsat.conflicts", stats.conflicts as f64);
    m.insert("pbsat.propagations", stats.propagations as f64);
    m
}

/// One member of the fleet.
struct Deployment<'a> {
    ctrl: Controller,
    load: Load,
    flows: &'a [FlowEvent],
    flow_pos: usize,
}

/// Runs one epoch of `member`, then (on `churn`) its flow slice.
fn step(
    phase: &mut Phase,
    mut layers: Option<&mut Layers>,
    member: &mut Deployment<'_>,
    shape: Shape,
    warm: &WarmCache,
) {
    let ctrl = &mut member.ctrl;
    let batch = member.load.next_batch(ctrl, ctrl.options().batch_size);
    let pre = layers.is_some().then(|| PreEpoch {
        instance: ctrl.instance().clone(),
        placement: ctrl.placement().clone(),
        dataplane: ctrl.dataplane().clone(),
        cache: ctrl.cache().clone(),
    });
    let submitted = batch.len() as u64;
    let t = Instant::now();
    let mut refused = 0;
    for event in batch {
        if ctrl.submit(event).is_err() {
            refused += 1;
        }
    }
    let result = ctrl.run_epoch();
    let elapsed = t.elapsed();
    phase.attempted += submitted;
    phase.events += submitted;
    phase.failed += refused;
    phase.epoch_ms.push(ms(elapsed));
    phase.epoch_ms_total += ms(elapsed);
    match result {
        Ok(Some(report)) => {
            for (_, outcome) in &report.outcomes {
                match outcome {
                    EventOutcome::Applied(tier) => phase.tiers[tier_index(*tier)] += 1,
                    EventOutcome::Rejected { reason } => {
                        phase.failed += 1;
                        println!("{}: event rejected: {reason}", shape_name(shape));
                    }
                    _ => {}
                }
            }
            if let (Some(layers), Some(pre)) = (layers.as_deref_mut(), pre) {
                trace_epoch(layers, pre, &report, ctrl, warm);
            }
        }
        Ok(None) => {}
        Err(e) => {
            phase.failed += submitted - refused;
            println!("{}: epoch failed: {e}", shape_name(shape));
        }
    }

    let mut flow_ms = 0.0;
    if !member.flows.is_empty() {
        let start = member.flow_pos % member.flows.len();
        let end = (start + FLOWS_PER_EPOCH).min(member.flows.len());
        let slice = &member.flows[start..end];
        member.flow_pos = end;
        if let Some(layers) = layers {
            trace_lookups(layers, ctrl.cache(), ctrl.instance(), slice);
        }
        let t = Instant::now();
        let report = ctrl.process_flows(slice);
        flow_ms = ms(t.elapsed());
        phase.flows += report.flows;
        phase.lookups += report.lookups;
        phase.hits += report.hits;
        phase.misses += report.misses;
        phase.miss_batches += report.miss_batches;
    }
    phase.flow_ms.push(flow_ms);
}

/// The cold placements behind `place_ms_p50`: seeded instances of the
/// members' shape, each solved from scratch by the controller's engine
/// (the solve inside bring-up, without the deployment). Each instance
/// keeps its fastest of [`COLD_REPEATS`] solves. Returns the times and
/// whether every solve found a placement.
fn cold_placements(shape: Shape, seed: u64, options: &PlacementOptions) -> (Vec<f64>, bool) {
    let instances: Vec<Instance> = (0..COLD_SET)
        .map(|i| build_instance(&scenario(shape, sub_seed(seed, 400), i)))
        .collect();
    let mut best_ms = vec![f64::INFINITY; COLD_SET];
    let mut ok = true;
    for _ in 0..COLD_REPEATS {
        for (i, instance) in instances.iter().enumerate() {
            let t = Instant::now();
            let out = par::solve(instance, Objective::default(), options);
            best_ms[i] = best_ms[i].min(ms(t.elapsed()));
            ok &= out.outcome.placement.is_some();
        }
    }
    (best_ms, ok)
}

/// Events per second of epoch time sustained by the median member of
/// the fleet. Every member submits the same number of events per pass,
/// and a member's time is the sum of its epochs' fastest passes.
fn member_events_per_s(phase: &Phase, fleet: usize) -> f64 {
    let mut member_ms = vec![0.0; fleet];
    for (i, t) in phase.epoch_ms.iter().enumerate() {
        member_ms[i / CHUNK] += t;
    }
    let events = phase.events as f64 / fleet as f64;
    let rates: Vec<f64> = member_ms.iter().map(|t| ratio(events * 1e3, *t)).collect();
    median(&rates)
}

/// Runs one pass on a freshly brought-up fleet: each member in turn
/// runs [`CHUNK`] epochs. Then audits every member and takes the work
/// fingerprint.
fn run_pass(fleet: &mut [Deployment<'_>], shape: Shape, mut layers: Option<&mut Layers>) -> Phase {
    let mut phase = Phase {
        passes: 1,
        ..Phase::default()
    };
    let warm = WarmCache::new(fleet[0].ctrl.options().warm.clone());
    let before: Vec<_> = fleet.iter().map(|m| m.ctrl.stats().clone()).collect();
    for member in fleet.iter_mut() {
        for _ in 0..CHUNK {
            step(&mut phase, layers.as_deref_mut(), member, shape, &warm);
        }
    }
    for (m, before) in fleet.iter().zip(&before) {
        let after = m.ctrl.stats();
        phase.warm[0] += after.warm_memo_hits - before.warm_memo_hits;
        phase.warm[1] += after.warm_memo_lookups - before.warm_memo_lookups;
        phase.warm[2] += after.warm_candidates_reused - before.warm_candidates_reused;
    }
    phase.correct = fleet.iter().all(|m| audit(&m.ctrl, shape_name(shape)));
    phase.peak_rss_mb = peak_rss_mb();
    phase.tcam_entries = fleet
        .iter()
        .map(|m| m.ctrl.dataplane().total_occupancy())
        .sum();
    let dumps: String = fleet.iter().map(|m| m.ctrl.dataplane().dump()).collect();
    phase.fingerprint = Some(format!(
        "tiers greedy={} restricted={} full={} delegated={}, tcam_entries {}, dump_hash {}",
        phase.tiers[0],
        phase.tiers[1],
        phase.tiers[2],
        phase.tiers[3],
        phase.tcam_entries,
        text_hash(&dumps)
    ));
    phase
}

/// Runs passes until `seconds` is up and at least [`MIN_PASSES`] are
/// done. Each pass brings up a fresh fleet from `instances`, timed for
/// `setup_s`, so every pass does the same work.
fn run_phase(
    shape: Shape,
    seed: u64,
    instances: &[Instance],
    flows: &[Vec<FlowEvent>],
    options: &CtrlOptions,
    seconds: Duration,
    mut layers: Option<&mut Layers>,
) -> Phase {
    let mut phase: Option<Phase> = None;
    let mut setup_s = Vec::new();
    let started = Instant::now();
    while setup_s.len() < MIN_PASSES || started.elapsed() < seconds {
        let t = Instant::now();
        let ctrls: Vec<Controller> = instances.iter().map(|i| bring_up(i, options)).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        let mut fleet = deploy(shape, seed, ctrls, flows);
        let pass = run_pass(&mut fleet, shape, layers.as_deref_mut());
        match phase.as_mut() {
            None => phase = Some(pass),
            Some(p) => {
                if !p.merge(pass) {
                    println!(
                        "{}: FAIL pass {} did different work",
                        shape_name(shape),
                        p.passes
                    );
                    p.correct = false;
                }
            }
        }
    }
    let mut phase = phase.expect("every phase makes at least one pass");
    phase.setup_s = setup_s;
    phase
}

fn shape_name(shape: Shape) -> &'static str {
    match shape {
        Shape::Churn => "churn",
        Shape::Storm => "storm",
    }
}

/// The post-run output checks; prints each failure.
fn audit(ctrl: &Controller, name: &str) -> bool {
    let mut ok = true;
    if let Err(e) = ctrl.fail_closed_audit() {
        println!("{name}: FAIL fail_closed_audit: {e}");
        ok = false;
    }
    if let Err(e) = ctrl.cache_fail_closed_audit() {
        println!("{name}: FAIL cache_fail_closed_audit: {e}");
        ok = false;
    }
    let stats = ctrl.stats();
    if stats.failclosed_violations != 0 || stats.cache_dep_violations != 0 {
        println!(
            "{name}: FAIL failclosed_violations {} cache_dep_violations {}",
            stats.failclosed_violations, stats.cache_dep_violations
        );
        ok = false;
    }
    ok
}

fn bring_up(instance: &Instance, options: &CtrlOptions) -> Controller {
    Controller::with_instance(instance.clone(), options.clone())
        .expect("the workload instance is feasible under the SAT engine")
}

/// Wraps freshly brought-up controllers with fresh event sources and
/// flow positions.
fn deploy<'a>(
    shape: Shape,
    seed: u64,
    ctrls: Vec<Controller>,
    flows: &'a [Vec<FlowEvent>],
) -> Vec<Deployment<'a>> {
    ctrls
        .into_iter()
        .zip(flows)
        .enumerate()
        .map(|(i, (ctrl, flows))| Deployment {
            ctrl,
            load: Load::new(shape, sub_seed(seed, 300 + i as u64)),
            flows,
            flow_pos: 0,
        })
        .collect()
}

/// Runs the workload.
pub fn run(shape: Shape, args: &Args) -> Outcome {
    let seconds = args.phase_seconds();
    let name = shape_name(shape);
    let size = size(shape);
    let instances: Vec<Instance> = (0..size.fleet)
        .map(|i| build_instance(&scenario(shape, args.seed, i)))
        .collect();
    let flows: Vec<Vec<FlowEvent>> = (0..size.fleet)
        .map(|i| match shape {
            Shape::Churn => flow_stream(sub_seed(args.seed, 200 + i as u64)),
            Shape::Storm => Vec::new(),
        })
        .collect();
    let options = ctrl_options(shape);
    let rules: usize = instances.iter().map(Instance::total_policy_rules).sum();
    let routes: usize = instances.iter().map(|i| i.routes().len()).sum();
    println!(
        "{name}: seed {} — fleet of {} x {} tenants x {} rules (capacity {}), {rules} rules, {routes} routes",
        args.seed, size.fleet, size.tenants, size.rules, size.capacity
    );

    let phase = run_phase(
        shape, args.seed, &instances, &flows, &options, seconds, None,
    );
    let mut correct = phase.correct;
    let epochs = phase.epoch_ms.len();
    let fail_rate = ratio(phase.failed as f64, phase.attempted as f64);
    println!(
        "{name}: {} passes of {} events in {epochs} epochs and {} flows, {} failed, fail_rate {fail_rate}",
        phase.passes, phase.events, phase.flows, phase.failed
    );
    println!(
        "{name}: fingerprint {}",
        phase.fingerprint.as_deref().unwrap_or("missing")
    );

    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);
    if args.trace {
        let mut layers = Layers::default();
        let traced = run_phase(
            shape,
            args.seed,
            &instances,
            &flows,
            &options,
            seconds,
            Some(&mut layers),
        );
        correct &= traced.correct;
        if traced.fingerprint != phase.fingerprint {
            println!("{name}: FAIL traced run diverged from the untraced one");
            correct = false;
        }
        attempted += traced.attempted;
        failed += traced.failed;
        // Layer sums cover every traced pass; the counters, one pass.
        let traced_epochs = (traced.passes * epochs) as f64;
        for (k, v) in &layers.sums {
            metrics.insert(*k, v / traced_epochs);
        }
        let epochs = epochs as f64;
        // Bring-up layers: mean per member.
        let mut bring_up_sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for instance in &instances {
            for (k, v) in trace_bring_up(instance, &options.placement) {
                *bring_up_sums.entry(k).or_insert(0.0) += v;
            }
        }
        for (k, v) in bring_up_sums {
            metrics.insert(k, v / instances.len() as f64);
        }
        let [hits, lookups, reused] = traced.warm;
        metrics.insert(
            "core.warm.memo_hit_rate",
            ratio(hits as f64, lookups as f64),
        );
        metrics.insert("core.warm.candidates_reused", reused as f64 / epochs);
        if shape == Shape::Churn {
            metrics.insert(
                "ctrl.cache.lookup.ns",
                ratio(layers.lookup_ns, layers.lookup_count as f64),
            );
            metrics.insert("ctrl.cache.misses", traced.misses as f64 / epochs);
            metrics.insert(
                "ctrl.cache.miss_batches",
                traced.miss_batches as f64 / epochs,
            );
        }
        let applied: u64 = traced.tiers.iter().sum();
        for (i, key) in [
            "ctrl.tier.greedy",
            "ctrl.tier.restricted",
            "ctrl.tier.full",
            "ctrl.tier.delegated",
        ]
        .into_iter()
        .enumerate()
        {
            metrics.insert(key, ratio(traced.tiers[i] as f64, applied as f64));
        }
        let untraced_p50 = median(&phase.epoch_ms);
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (median(&traced.epoch_ms) - untraced_p50) / untraced_p50,
        );
        let epoch_mean = traced.epoch_ms_total / traced_epochs;
        let span_mean = mean(&layers.spans);
        metrics.insert("trace.epoch_ms_mean", epoch_mean);
        metrics.insert("trace.span_ms_mean", span_mean);
        metrics.insert("ctrl.unattributed.ms", epoch_mean - span_mean);
        if layers.unreplayed > 0 {
            println!(
                "{name}: traced phase left {} epochs partly replayed (delegation rescues)",
                layers.unreplayed
            );
        }
        if shape == Shape::Churn {
            let flow_s = phase.flow_ms.iter().sum::<f64>() / 1e3;
            metrics.insert("flows_per_s", ratio(phase.flows as f64, flow_s));
            metrics.insert(
                "cache_hit_rate",
                ratio(phase.hits as f64, phase.lookups as f64),
            );
        }
        let (cold_ms, cold_ok) = cold_placements(shape, args.seed, &options.placement);
        if !cold_ok {
            println!("{name}: FAIL a cold placement found no solution");
            correct = false;
        }
        metrics.insert("place_ms_p50", median(&cold_ms));
        metrics.insert(
            "placements_per_s",
            cold_ms.len() as f64 * 1e3 / cold_ms.iter().sum::<f64>(),
        );
        metrics.insert("fail_rate", fail_rate);
        metrics.insert("input.rules", rules as f64);
        metrics.insert("input.routes", routes as f64);
        metrics.insert("input.instances", instances.len() as f64);
        metrics.insert("input.events", phase.events as f64);
        metrics.insert("input.flows", phase.flows as f64);
        metrics.insert("input.epochs", epochs);
        metrics.insert("input.tenants", (size.fleet * size.tenants) as f64);
    } else {
        metrics.insert("setup_s", median(&phase.setup_s));
        metrics.insert("epoch_ms_p50", median(&phase.epoch_ms));
        metrics.insert("epoch_ms_p90", percentile(&phase.epoch_ms, 0.9));
        metrics.insert("events_per_s", member_events_per_s(&phase, size.fleet));
        metrics.insert("tcam_entries", phase.tcam_entries as f64);
        metrics.insert("peak_rss_mb", phase.peak_rss_mb);
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}
