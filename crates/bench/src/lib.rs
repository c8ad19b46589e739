//! The paper's evaluation as a library: [`experiments`] holds one function
//! per table or figure (see DESIGN.md's per-experiment index), run by the
//! `all_experiments` binary over one [`Runs`] memo. The helpers here build
//! the Table II / §VI endpoint pools and format output rows.

pub mod experiments;

use fedci::hardware::ClusterSpec;
use simkit::series::SeriesSet;
use simkit::SimTime;
use taskgraph::workloads::{drug, montage};
use taskgraph::Dag;
use unifaas::config::{Config, ConfigBuilder, EndpointConfig, SchedulingStrategy};
use unifaas::metrics::RunReport;
use unifaas::SimRuntime;

/// The §VI-A static-capacity pool for the drug-screening workflow:
/// 2000/384/48/52 workers on Taiyi/Qiming/Dept/Lab (EP1–EP4).
pub fn drug_static_pool() -> ConfigBuilder {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 2000))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 384))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 48))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 52))
}

/// The §VI-A static-capacity pool for the montage workflow:
/// 120/240/48/52 workers.
pub fn montage_static_pool() -> ConfigBuilder {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 120))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 240))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 48))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 52))
}

/// The §VI-B dynamic-capacity pool for the drug workflow: 400/600/48/52
/// initial workers; +600 on EP2 at t=120, −280 on EP1 at t=540 (Fig. 12).
pub fn drug_dynamic_pool() -> ConfigBuilder {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 400))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 600))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 48))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 52))
        .capacity_event(120, 1, 600)
        .capacity_event(540, 0, -280)
}

/// The §VI-B dynamic-capacity pool for the montage workflow: 40/240/48/52
/// initial workers; +80 on EP1 at t=120, −168 on EP2 at t=300 (Fig. 13).
pub fn montage_dynamic_pool() -> ConfigBuilder {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 40))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 240))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 48))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 52))
        .capacity_event(120, 0, 80)
        .capacity_event(300, 1, -168)
}

/// One §VI case study: it fixes both the endpoint pool and the DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pool {
    /// [`drug_static_pool`] running the 24,001-task drug DAG (Table IV).
    DrugStatic,
    /// [`montage_static_pool`] running the 11,340-task montage DAG.
    MontageStatic,
    /// [`drug_dynamic_pool`] running the 12,001-task drug DAG (Table V).
    DrugDynamic,
    /// [`montage_dynamic_pool`] running the montage DAG.
    MontageDynamic,
}

impl Pool {
    /// The endpoint pool, capacity events included.
    pub fn config(self) -> ConfigBuilder {
        match self {
            Pool::DrugStatic => drug_static_pool(),
            Pool::MontageStatic => montage_static_pool(),
            Pool::DrugDynamic => drug_dynamic_pool(),
            Pool::MontageDynamic => montage_dynamic_pool(),
        }
    }

    /// A fresh copy of the case study's DAG.
    pub fn dag(self) -> Dag {
        match self {
            Pool::DrugStatic => drug::generate(&drug::DrugParams::full()),
            Pool::DrugDynamic => drug::generate(&drug::DrugParams::dynamic_study()),
            Pool::MontageStatic | Pool::MontageDynamic => {
                montage::generate(&montage::MontageParams::full())
            }
        }
    }

    /// Simulates the case study under `strategy`.
    pub fn run(self, strategy: SchedulingStrategy) -> RunReport {
        let mut cfg = self.config().build();
        cfg.strategy = strategy;
        SimRuntime::new(cfg, self.dag()).run().expect("run failed")
    }
}

/// The case-study runs of one invocation, each simulated once: Table III/IV
/// and Figs. 9–11 read the same static runs, Table V and Figs. 12–13 the
/// same dynamic ones. Strategies are compared as given, not normalised.
#[derive(Default)]
pub struct Runs {
    memo: Vec<(Pool, SchedulingStrategy, RunReport)>,
}

impl Runs {
    /// The reports of `pool` under each of `strategies`, in order,
    /// simulating only the pairs not seen before.
    pub fn get(&mut self, pool: Pool, strategies: &[SchedulingStrategy]) -> Vec<&RunReport> {
        let at: Vec<usize> = strategies
            .iter()
            .map(|s| {
                let known = self.memo.iter().position(|(p, q, _)| *p == pool && q == s);
                known.unwrap_or_else(|| {
                    self.memo.push((pool, s.clone(), pool.run(s.clone())));
                    self.memo.len() - 1
                })
            })
            .collect();
        at.into_iter().map(|i| &self.memo[i].2).collect()
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
        let drug = drug_static_pool().build();
        let workers: Vec<usize> = drug.endpoints.iter().map(|e| e.workers).collect();
        assert_eq!(&workers[..4], &[2000, 384, 48, 52]);
        let montage = montage_static_pool().build();
        let workers: Vec<usize> = montage.endpoints.iter().map(|e| e.workers).collect();
        assert_eq!(&workers[..4], &[120, 240, 48, 52]);
    }

    #[test]
    fn dynamic_pools_carry_capacity_events() {
        let cfg = drug_dynamic_pool().build();
        assert_eq!(cfg.capacity_events.len(), 2);
        assert_eq!(cfg.capacity_events[0].delta, 600);
        assert_eq!(cfg.capacity_events[1].delta, -280);
        let cfg = montage_dynamic_pool().build();
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
