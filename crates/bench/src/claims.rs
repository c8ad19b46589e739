//! The §VI claims as executable assertions over seeds.
//!
//! Each [`Claim`] is an ordering `lhs < rhs` of one number read from two
//! case-study runs of the same seed. The `claims` experiment checks every
//! claim on seeds `0..SEEDS` and prints how many seeds it holds on, with
//! the median and range of `lhs / rhs` next to the paper's ratio. Seed `s`
//! is added to both the `Config` seed and the DAG generator's seed, so
//! seed 0 is the run every table and figure prints.

use simkit::SimTime;
use unifaas::config::SchedulingStrategy;
use unifaas::metrics::RunReport;
use SchedulingStrategy::{Capacity, Locality};

use crate::{Pool, Runs};

/// Seeds each claim is checked on.
const SEEDS: u64 = 20;

const DHA: SchedulingStrategy = SchedulingStrategy::Dha { rescheduling: true };
const NO_RESCHED: SchedulingStrategy = SchedulingStrategy::Dha {
    rescheduling: false,
};

/// A number read from one run.
#[derive(Clone, Copy)]
enum Metric {
    /// Makespan, seconds (Tables IV and V).
    Makespan,
    /// Data moved, GB (Table IV).
    Transfer,
    /// Mean worker utilization over the run (Fig. 9).
    Utilization,
    /// Mean tasks in the data-staging state over the run (Fig. 10).
    Staging,
    /// Share of the tasks run on Taiyi, EP1 (Fig. 11).
    TaiyiShare,
}

impl Metric {
    fn name(self) -> &'static str {
        match self {
            Metric::Makespan => "makespan",
            Metric::Transfer => "transfer",
            Metric::Utilization => "utilization",
            Metric::Staging => "staging",
            Metric::TaiyiShare => "Taiyi share",
        }
    }

    fn of(self, r: &RunReport) -> f64 {
        match self {
            Metric::Makespan => r.makespan.as_secs_f64(),
            Metric::Transfer => r.transfer_gb(),
            Metric::Utilization => r.mean_utilization(),
            Metric::Staging => r
                .series
                .staging_tasks
                .mean_over(SimTime::ZERO, SimTime::ZERO + r.makespan),
            Metric::TaiyiShare => {
                let total: usize = r.tasks_per_endpoint.iter().map(|(_, c)| c).sum();
                r.tasks_per_endpoint[0].1 as f64 / total as f64
            }
        }
    }
}

/// The claim `metric(lhs) < metric(rhs)`, each side a case study under a
/// strategy.
struct Claim {
    /// The table or figure that prints it.
    source: &'static str,
    metric: Metric,
    lhs: (Pool, SchedulingStrategy),
    rhs: (Pool, SchedulingStrategy),
    /// The paper's `lhs / rhs`, where it prints both numbers.
    paper: Option<f64>,
}

/// Every ordering Tables IV/V and Figs. 9–11 print. Paper ratios are from
/// the rows quoted in those experiments' doc comments.
#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    claim("IV drug", Metric::Makespan, Pool::DrugStatic, DHA, Pool::DrugStatic, Capacity, Some(2898.0 / 3240.0)),
    claim("IV drug", Metric::Makespan, Pool::DrugStatic, Capacity, Pool::DrugStatic, Locality, Some(3240.0 / 3882.0)),
    claim("IV drug", Metric::Makespan, Pool::DrugStatic, DHA, Pool::DrugTaiyiOnly, Capacity, Some(2898.0 / 3763.0)),
    claim("IV drug", Metric::Makespan, Pool::DrugStatic, Capacity, Pool::DrugTaiyiOnly, Capacity, Some(3240.0 / 3763.0)),
    claim("IV drug", Metric::Transfer, Pool::DrugStatic, Capacity, Pool::DrugStatic, DHA, Some(4.86 / 44.94)),
    claim("IV drug", Metric::Transfer, Pool::DrugStatic, DHA, Pool::DrugStatic, Locality, Some(44.94 / 53.46)),
    claim("IV montage", Metric::Makespan, Pool::MontageStatic, DHA, Pool::MontageStatic, Capacity, Some(909.0 / 1027.0)),
    claim("IV montage", Metric::Makespan, Pool::MontageStatic, Capacity, Pool::MontageStatic, Locality, Some(1027.0 / 1055.0)),
    claim("IV montage", Metric::Makespan, Pool::MontageStatic, DHA, Pool::MontageQimingOnly, Capacity, Some(909.0 / 1994.0)),
    claim("IV montage", Metric::Makespan, Pool::MontageStatic, Capacity, Pool::MontageQimingOnly, Capacity, Some(1027.0 / 1994.0)),
    claim("IV montage", Metric::Makespan, Pool::MontageStatic, Locality, Pool::MontageQimingOnly, Capacity, Some(1055.0 / 1994.0)),
    claim("IV montage", Metric::Transfer, Pool::MontageStatic, Capacity, Pool::MontageStatic, Locality, Some(2.57 / 13.35)),
    claim("IV montage", Metric::Transfer, Pool::MontageStatic, Capacity, Pool::MontageStatic, DHA, Some(2.57 / 18.27)),
    claim("Fig. 9 drug", Metric::Utilization, Pool::DrugStatic, Capacity, Pool::DrugStatic, DHA, None),
    claim("Fig. 9 drug", Metric::Utilization, Pool::DrugStatic, Locality, Pool::DrugStatic, DHA, None),
    claim("Fig. 9 montage", Metric::Utilization, Pool::MontageStatic, Capacity, Pool::MontageStatic, DHA, None),
    claim("Fig. 9 montage", Metric::Utilization, Pool::MontageStatic, Locality, Pool::MontageStatic, DHA, None),
    claim("Fig. 10 drug", Metric::Staging, Pool::DrugStatic, Capacity, Pool::DrugStatic, Locality, None),
    claim("Fig. 11 drug", Metric::TaiyiShare, Pool::DrugStatic, Capacity, Pool::DrugStatic, DHA, None),
    claim("V drug", Metric::Makespan, Pool::DrugDynamic, DHA, Pool::DrugDynamic, Locality, Some(1666.0 / 2130.0)),
    claim("V drug", Metric::Makespan, Pool::DrugDynamic, Locality, Pool::DrugDynamic, Capacity, Some(2130.0 / 3610.0)),
    claim("V drug", Metric::Makespan, Pool::DrugDynamic, DHA, Pool::DrugDynamic, NO_RESCHED, Some(1666.0 / 2183.0)),
    claim("V montage", Metric::Makespan, Pool::MontageDynamic, DHA, Pool::MontageDynamic, Locality, Some(1257.0 / 1360.0)),
    claim("V montage", Metric::Makespan, Pool::MontageDynamic, Locality, Pool::MontageDynamic, Capacity, Some(1360.0 / 2671.0)),
    claim("V montage", Metric::Makespan, Pool::MontageDynamic, DHA, Pool::MontageDynamic, NO_RESCHED, Some(1257.0 / 1868.0)),
];

#[allow(clippy::too_many_arguments)]
const fn claim(
    source: &'static str,
    metric: Metric,
    lhs_pool: Pool,
    lhs: SchedulingStrategy,
    rhs_pool: Pool,
    rhs: SchedulingStrategy,
    paper: Option<f64>,
) -> Claim {
    Claim {
        source,
        metric,
        lhs: (lhs_pool, lhs),
        rhs: (rhs_pool, rhs),
        paper,
    }
}

/// A side's name in a claim row: the strategy, or the baseline's cluster.
fn side_name((pool, strategy): &(Pool, SchedulingStrategy)) -> &'static str {
    match (pool, strategy) {
        (Pool::DrugTaiyiOnly, _) => "Taiyi only",
        (Pool::MontageQimingOnly, _) => "Qiming only",
        (_, Capacity) => "Capacity",
        (_, Locality) => "Locality",
        (_, s) if *s == DHA => "DHA",
        _ => "DHA-no-resched",
    }
}

/// The `claims` experiment: each claim's k/20, and the median and range of
/// its ratio next to the paper's.
pub fn claims(runs: &mut Runs) {
    println!(
        "=== Paper claims over {SEEDS} seeds (seed s offsets the Config and DAG seeds; \
         seed 0 is the tables above) ===\n"
    );
    println!(
        "{:<44} {:>6} {:>8} {:>15} {:>7}",
        "claim (lhs < rhs)", "holds", "median", "range", "paper"
    );
    // Seed-major, so only one seed's runs are held at a time besides
    // seed 0's, which the tables share.
    let mut ratios = vec![Vec::with_capacity(SEEDS as usize); CLAIMS.len()];
    for seed in 0..SEEDS {
        for (c, r) in CLAIMS.iter().zip(&mut ratios) {
            let mut read = |(pool, strategy): &(Pool, SchedulingStrategy)| {
                c.metric
                    .of(runs.get(*pool, seed, std::slice::from_ref(strategy))[0])
            };
            r.push(read(&c.lhs) / read(&c.rhs));
        }
        if seed != 0 {
            runs.forget(seed);
        }
    }
    for (c, mut ratios) in CLAIMS.iter().zip(ratios) {
        let holds = ratios.iter().filter(|r| **r < 1.0).count();
        ratios.sort_by(f64::total_cmp);
        let mid = SEEDS as usize / 2;
        let median = (ratios[mid - 1] + ratios[mid]) / 2.0;
        let label = format!(
            "{} {}: {} < {}",
            c.source,
            c.metric.name(),
            side_name(&c.lhs),
            side_name(&c.rhs)
        );
        let range = format!("{:.3}-{:.3}", ratios[0], ratios[ratios.len() - 1]);
        let paper = c.paper.map_or("n/a".into(), |p| format!("{p:.3}"));
        println!("{label:<44} {holds:>3}/{SEEDS} {median:>8.3} {range:>15} {paper:>7}");
    }
    println!(
        "\nholds: seeds on which lhs < rhs; median and range: of lhs / rhs; paper: the\n\
         paper's lhs / rhs where it prints both numbers."
    );
}
