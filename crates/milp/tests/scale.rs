//! A placement-shaped LP far beyond the size where an explicit dense
//! basis inverse fits in memory (50k rows would need 20 GB for `m²`
//! doubles). The factored basis keeps memory linear in the model, so the
//! solve must return a normal outcome within its deadline instead of
//! aborting the process.

use std::time::{Duration, Instant};

use flowplace_milp::{solve_lp_with, Cmp, LpOptions, LpOutcome, Model, Sense, VarId};

/// Rules to cover, each by one of two candidate switches.
const RULES: usize = 40_000;
/// Switches, each with one capacity row.
const SWITCHES: usize = 10_000;

/// Cover rows (every rule placed at least once) plus capacity rows, with
/// three nonzeros per column: a candidate sits in its own rule's cover
/// row, in the next rule's cover row (a merged rule covering both), and
/// in its switch's capacity row.
fn placement_shaped_lp() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let mut cover: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); RULES];
    let mut capacity: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); SWITCHES];
    for rule in 0..RULES {
        for k in 0..2 {
            let switch = (rule * 7 + k * 3_001) % SWITCHES;
            let x = m.add_continuous(format!("x{rule}_{k}"), 0.0, 1.0);
            m.set_objective(x, 1.0 + ((rule + k) % 5) as f64);
            cover[rule].push((x, 1.0));
            cover[(rule + 1) % RULES].push((x, 1.0));
            capacity[switch].push((x, 1.0));
        }
    }
    for (rule, terms) in cover.into_iter().enumerate() {
        m.add_constraint(format!("cover{rule}"), terms, Cmp::Ge, 1.0);
    }
    for (switch, terms) in capacity.into_iter().enumerate() {
        m.add_constraint(format!("cap{switch}"), terms, Cmp::Le, 6.0);
    }
    m
}

#[test]
fn fifty_thousand_row_lp_solves_or_stops_at_its_deadline() {
    let model = placement_shaped_lp();
    assert_eq!(model.num_constraints(), RULES + SWITCHES);
    let budget = Duration::from_secs(2);
    let start = Instant::now();
    let options = LpOptions {
        deadline: Some(start + budget),
        ..LpOptions::default()
    };
    let outcome = solve_lp_with(&model, &options);
    assert!(
        matches!(outcome, LpOutcome::Optimal(_) | LpOutcome::IterationLimit),
        "unexpected outcome {:?}",
        outcome.status()
    );
    // The deadline is polled once per iteration; one iteration is far
    // below this slack even in an unoptimized build.
    assert!(start.elapsed() < budget + Duration::from_secs(30));
}
