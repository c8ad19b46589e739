//! The paper's evaluation as a library: [`experiments`] holds one function
//! per table or figure (see DESIGN.md's per-experiment index), run by the
//! `all_experiments` binary over one [`Runs`] memo. The helpers here build
//! the Table II / §VI endpoint pools and format output rows.

pub mod claims;
pub mod experiments;

use fedci::hardware::ClusterSpec;
use simkit::series::SeriesSet;
use simkit::SimTime;
use taskgraph::workloads::{drug, montage};
use taskgraph::Dag;
use unifaas::config::{Config, ConfigBuilder, EndpointConfig, SchedulingStrategy};
use unifaas::metrics::RunReport;
use unifaas::SimRuntime;

/// One §VI case study: it fixes both the endpoint pool and the DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pool {
    /// §VI-A static capacity, 2000/384/48/52 workers on
    /// Taiyi/Qiming/Dept/Lab (EP1–EP4), running the 24,001-task drug DAG
    /// (Table IV).
    DrugStatic,
    /// §VI-A static capacity, 120/240/48/52 workers, running the
    /// 11,340-task montage DAG (Table IV).
    MontageStatic,
    /// §VI-B dynamic capacity, 400/600/48/52 initial workers, +600 on EP2
    /// at t=120 and −280 on EP1 at t=540 (Fig. 12), running the
    /// 12,001-task drug DAG (Table V).
    DrugDynamic,
    /// §VI-B dynamic capacity, 40/240/48/52 initial workers, +80 on EP1 at
    /// t=120 and −168 on EP2 at t=300 (Fig. 13), running the montage DAG.
    MontageDynamic,
    /// Table IV's drug baseline: Taiyi's 2000 workers alone.
    DrugTaiyiOnly,
    /// Table IV's montage baseline: Qiming's 240 workers alone.
    MontageQimingOnly,
}

impl Pool {
    /// The endpoint pool, capacity events included.
    pub fn config(self) -> ConfigBuilder {
        // Workers on Taiyi/Qiming/Dept/Lab; a baseline leaves out the
        // clusters it does not run on.
        let workers = match self {
            Pool::DrugStatic => [2000, 384, 48, 52],
            Pool::MontageStatic => [120, 240, 48, 52],
            Pool::DrugDynamic => [400, 600, 48, 52],
            Pool::MontageDynamic => [40, 240, 48, 52],
            Pool::DrugTaiyiOnly => [2000, 0, 0, 0],
            Pool::MontageQimingOnly => [0, 240, 0, 0],
        };
        let clusters = [
            ("Taiyi", ClusterSpec::taiyi()),
            ("Qiming", ClusterSpec::qiming()),
            ("Dept", ClusterSpec::dept_cluster()),
            ("Lab", ClusterSpec::lab_cluster()),
        ];
        let b = (clusters.into_iter().zip(workers))
            .filter(|(_, w)| *w > 0)
            .fold(Config::builder(), |b, ((label, cluster), w)| {
                b.endpoint(EndpointConfig::new(label, cluster, w))
            });
        match self {
            Pool::DrugDynamic => b.capacity_event(120, 1, 600).capacity_event(540, 0, -280),
            Pool::MontageDynamic => b.capacity_event(120, 0, 80).capacity_event(300, 1, -168),
            _ => b,
        }
    }

    /// A fresh copy of the case study's DAG, its generator seed offset by
    /// `seed` (0 is the paper-table DAG).
    pub fn dag(self, seed: u64) -> Dag {
        match self {
            Pool::DrugStatic | Pool::DrugTaiyiOnly => {
                let mut p = drug::DrugParams::full();
                p.seed += seed;
                drug::generate(&p)
            }
            Pool::DrugDynamic => {
                let mut p = drug::DrugParams::dynamic_study();
                p.seed += seed;
                drug::generate(&p)
            }
            Pool::MontageStatic | Pool::MontageDynamic | Pool::MontageQimingOnly => {
                let mut p = montage::MontageParams::full();
                p.seed += seed;
                montage::generate(&p)
            }
        }
    }

    /// Simulates the case study under `strategy`, with `seed` added to
    /// both the `Config` seed and the DAG generator's seed (0 reproduces
    /// the paper tables).
    pub fn run(self, strategy: SchedulingStrategy, seed: u64) -> RunReport {
        let mut cfg = self.config().build();
        cfg.strategy = strategy;
        cfg.seed += seed;
        SimRuntime::new(cfg, self.dag(seed))
            .run()
            .expect("run failed")
    }
}

/// The case-study runs of one invocation, each simulated once: Table III/IV
/// and Figs. 9–11 read the same static runs, Table V and Figs. 12–13 the
/// same dynamic ones, and `claims` every seed's. Strategies are compared
/// as given, not normalised.
#[derive(Default)]
pub struct Runs {
    memo: Vec<((Pool, SchedulingStrategy, u64), RunReport)>,
}

impl Runs {
    /// The reports of `pool` at `seed` under each of `strategies`, in
    /// order, simulating only the runs not seen before.
    pub fn get(
        &mut self,
        pool: Pool,
        seed: u64,
        strategies: &[SchedulingStrategy],
    ) -> Vec<&RunReport> {
        let at: Vec<usize> = strategies
            .iter()
            .map(|s| {
                let key = (pool, s.clone(), seed);
                let known = self.memo.iter().position(|(k, _)| *k == key);
                known.unwrap_or_else(|| {
                    self.memo.push((key, pool.run(s.clone(), seed)));
                    self.memo.len() - 1
                })
            })
            .collect();
        at.into_iter().map(|i| &self.memo[i].1).collect()
    }

    /// Drops the reports of `seed`, so a seed sweep holds one seed at a
    /// time.
    pub fn forget(&mut self, seed: u64) {
        self.memo.retain(|((_, _, s), _)| *s != seed);
    }
}

/// The three general schedulers compared throughout the evaluation.
pub fn all_strategies() -> Vec<SchedulingStrategy> {
    vec![
        SchedulingStrategy::Capacity,
        SchedulingStrategy::Locality,
        SchedulingStrategy::Dha { rescheduling: true },
    ]
}

/// Prints a Table IV/V-style result row.
pub fn print_result_row(label: &str, report: &RunReport) {
    println!(
        "  {:<24} {:>12.0} {:>14.2}",
        label,
        report.makespan.as_secs_f64(),
        report.transfer_gb()
    );
}

/// Prints the header matching [`print_result_row`].
pub fn print_result_header(workflow: &str) {
    println!("{workflow}");
    println!(
        "  {:<24} {:>12} {:>14}",
        "experiment", "makespan (s)", "transfer (GB)"
    );
}

/// The `n + 1` instants `from + (to − from)·i/n` for `i` in `0..=n`
/// (`n > 0`): a uniform grid whose last point is exactly `to`. Each point
/// is computed from `i`, not by adding a rounded step, so the grid never
/// falls short of `to` and never repeats its last point.
pub fn grid(from: SimTime, to: SimTime, n: u64) -> impl Iterator<Item = SimTime> {
    let (a, span) = (from.as_micros(), (to - from).as_micros());
    (0..=n).map(move |i| SimTime::from_micros(a + span * i / n))
}

/// Prints a labeled time-series set at the given instants — the textual
/// form of the paper's figure panels.
pub fn print_series_grid(set: &SeriesSet, times: impl IntoIterator<Item = SimTime>) {
    print!("{:>8}", "t(s)");
    for (label, _) in set.iter() {
        print!(" {label:>12}");
    }
    println!();
    for t in times {
        print!("{:>8.0}", t.as_secs_f64());
        for (_, series) in set.iter() {
            print!(" {:>12.1}", series.value_at(t));
        }
        println!();
    }
}

/// Prints one column per report, headed by its scheduler, on a 20-step
/// grid up to the longest makespan — Figs. 9 and 10's form.
pub fn print_report_grid(
    reports: &[&RunReport],
    width: usize,
    precision: usize,
    value: impl Fn(&RunReport, SimTime) -> f64,
) {
    let horizon = reports
        .iter()
        .map(|r| r.makespan.as_secs_f64())
        .fold(0.0, f64::max);
    print!("{:>8}", "t(s)");
    for r in reports {
        print!(" {:>width$}", r.scheduler);
    }
    println!();
    for t in grid(SimTime::ZERO, SimTime::from_secs_f64(horizon), 20) {
        print!("{:>8.0}", t.as_secs_f64());
        for r in reports {
            print!(" {:>width$.precision$}", value(r, t));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_match_section_vi_worker_counts() {
        let workers = |pool: Pool| -> Vec<usize> {
            let cfg = pool.config().build();
            cfg.endpoints.iter().map(|e| e.workers).collect()
        };
        assert_eq!(workers(Pool::DrugStatic), [2000, 384, 48, 52, 0]);
        assert_eq!(workers(Pool::MontageStatic), [120, 240, 48, 52, 0]);
        assert_eq!(workers(Pool::DrugTaiyiOnly), [2000, 0]);
        assert_eq!(workers(Pool::MontageQimingOnly), [240, 0]);
    }

    #[test]
    fn dynamic_pools_carry_capacity_events() {
        let cfg = Pool::DrugDynamic.config().build();
        assert_eq!(cfg.capacity_events.len(), 2);
        assert_eq!(cfg.capacity_events[0].delta, 600);
        assert_eq!(cfg.capacity_events[1].delta, -280);
        let cfg = Pool::MontageDynamic.config().build();
        assert_eq!(cfg.capacity_events[0].endpoint, 0);
        assert_eq!(cfg.capacity_events[1].delta, -168);
    }

    #[test]
    fn strategy_list_covers_all_three() {
        assert_eq!(all_strategies().len(), 3);
    }

    #[test]
    fn grid_ends_on_its_last_point_once() {
        // 2351.123457 s / 20 is not a whole number of µs: a rounded step
        // would end 17 µs short of `to` and print its row twice.
        let to = SimTime::from_micros(2_351_123_457);
        let points: Vec<SimTime> = grid(SimTime::ZERO, to, 20).collect();
        assert_eq!(points.len(), 21);
        assert_eq!(points[0], SimTime::ZERO);
        assert_eq!(points[20], to);
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        let from = SimTime::from_secs(10);
        let shifted: Vec<SimTime> = grid(from, SimTime::from_secs(50), 4).collect();
        let secs: Vec<u64> = shifted.iter().map(|t| t.as_micros() / 1_000_000).collect();
        assert_eq!(secs, [10, 20, 30, 40, 50]);
    }
}
