//! Criterion micro-benchmarks for the hot paths of the framework:
//! scheduler decision cost (Table III's metric at micro scale), DAG
//! analytics (HEFT ranks, DFS partitioning), the event queue, and the
//! profilers' model training/prediction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use perfmodel::{Dataset, RandomForest, RandomForestParams, Regressor};
use simkit::{EventQueue, SimRng, SimTime};
use taskgraph::partition::capacity_partition;
use taskgraph::rank::{priorities, FnCosts};
use taskgraph::workloads::drug::{generate, DrugParams};
use taskgraph::workloads::random::{generate as random_dag, RandomDagParams};
use taskgraph::TaskId;

fn bench_event_queue(c: &mut Criterion) {
    // Calendar wheel vs binary-heap reference on identical traffic: the
    // classic hold model. Preload 10k pending events (the working set a
    // stress run actually carries), then run a pop-one/schedule-one steady
    // state where each new event lands a short, sim-shaped delay past the
    // event just delivered. The heap pays O(log n) sifts against the full
    // working set on every operation; the wheel pays O(1) bucket pushes.
    fn delays(n: u64) -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(1);
        (0..n)
            .map(|_| (rng.uniform01() * 5e6) as u64) // 0–5 s, sim-typical
            .collect()
    }
    fn hold(q: &mut EventQueue<usize>, delays: &[u64]) -> usize {
        for (i, d) in delays.iter().enumerate() {
            q.schedule(SimTime::from_micros(*d), i);
        }
        let mut count = 0;
        for (i, d) in delays.iter().enumerate() {
            let (now, _) = q.pop().expect("queue holds 10k events");
            q.schedule(SimTime::from_micros(now.as_micros() + *d), i);
            count += 1;
        }
        while q.pop().is_some() {
            count += 1;
        }
        count
    }
    c.bench_function("event_queue_schedule_pop_wheel", |b| {
        b.iter_batched(
            || delays(10_000),
            |d| hold(&mut EventQueue::new(), &d),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("event_queue_schedule_pop_heap", |b| {
        b.iter_batched(
            || delays(10_000),
            |d| hold(&mut EventQueue::new_reference_heap(), &d),
            BatchSize::SmallInput,
        )
    });
}

fn bench_sched_hooks(c: &mut Criterion) {
    use fedci::endpoint::EndpointId;
    use fedci::network::{Link, NetworkTopology};
    use fedci::storage::DataStore;
    use fedci::transfer::TransferMechanism;
    use taskgraph::{Dag, TaskSpec};
    use unifaas::data::NoTransferLoad;
    use unifaas::monitor::{EndpointMonitor, MockEndpoint};
    use unifaas::profile::{EndpointFeatures, OracleProfiler};
    use unifaas::sched::{capacity::CapacityScheduler, SchedCtx, Scheduler};

    // The batched-hook dividend: pushing one 256-task same-timestamp ready
    // run through the Capacity scheduler as a single `on_tasks_ready` call
    // (one SchedCtx, one action drain — what the batched runtime pays) vs
    // 256 one-task `on_tasks_ready` calls, each with its own SchedCtx build
    // and action drain (what a scheduler that consumes one task per call
    // costs). The decisions and the resulting action list are identical.
    let mut dag = Dag::new();
    let f = dag.register_function("f");
    let tasks: Vec<TaskId> = (0..256)
        .map(|_| dag.add_task(TaskSpec::compute(f, 1.0), &[]))
        .collect();
    let monitor = EndpointMonitor::new(vec![
        MockEndpoint::new(EndpointId(0), "a", 64, 1.0),
        MockEndpoint::new(EndpointId(1), "b", 64, 1.0),
    ]);
    let store = DataStore::new();
    let oracle = OracleProfiler::new(
        NetworkTopology::uniform(2, Link::wan()),
        TransferMechanism::Globus.default_params(),
    );
    let features: Vec<EndpointFeatures> = (0..2)
        .map(|i| EndpointFeatures {
            id: EndpointId(i as u16),
            cores: 16,
            cpu_ghz: 2.6,
            ram_gb: 64,
            speed_factor: 1.0,
        })
        .collect();
    let compute = [EndpointId(0), EndpointId(1)];
    let ctx = |actions: Vec<_>| {
        SchedCtx::new(
            SimTime::ZERO,
            &dag,
            &monitor,
            &store,
            &oracle,
            &features,
            EndpointId(0),
            &compute,
            &NoTransferLoad,
            0,
        )
        .with_action_buf(actions)
    };
    let prime = |sched: &mut CapacityScheduler| {
        let mut c = ctx(Vec::new());
        sched.on_tasks_added(&mut c, &tasks);
        c.take_actions()
    };

    c.bench_function("hook_batch_vs_single/batched_256", |b| {
        let mut sched = CapacityScheduler::new();
        let mut buf = prime(&mut sched);
        b.iter(|| {
            buf.clear();
            let mut c = ctx(std::mem::take(&mut buf));
            let n = sched.on_tasks_ready(&mut c, &tasks);
            buf = c.take_actions();
            assert_eq!(n, tasks.len());
            buf.len()
        })
    });
    c.bench_function("hook_batch_vs_single/single_256", |b| {
        let mut sched = CapacityScheduler::new();
        let mut buf = prime(&mut sched);
        let mut out: Vec<_> = Vec::new();
        b.iter(|| {
            out.clear();
            for &t in &tasks {
                buf.clear();
                let mut c = ctx(std::mem::take(&mut buf));
                sched.on_tasks_ready(&mut c, &[t]);
                buf = c.take_actions();
                out.append(&mut buf);
            }
            out.len()
        })
    });
}

fn bench_dag_analytics(c: &mut Criterion) {
    let dag = generate(&DrugParams::small(1_000)); // 4,001 tasks
    c.bench_function("heft_priorities_4k_tasks", |b| {
        b.iter(|| {
            let costs = FnCosts {
                staging: |_t: TaskId| 1.0,
                execution: |t: TaskId| dag.spec(t).compute_seconds,
            };
            priorities(&dag, &costs)
        })
    });
    c.bench_function("capacity_partition_4k_tasks", |b| {
        b.iter(|| capacity_partition(&dag, &[2000, 384, 48, 52]))
    });
    let layered = random_dag(&RandomDagParams {
        n_layers: 12,
        min_width: 50,
        max_width: 200,
        ..Default::default()
    });
    c.bench_function("topological_order_layered", |b| {
        b.iter(|| taskgraph::traverse::topological_order(&layered))
    });
}

fn bench_models(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(7);
    let mut data = Dataset::new(4);
    for _ in 0..500 {
        let size = rng.uniform(1.0, 100.0);
        let cores = [16.0, 40.0, 48.0][rng.uniform_usize(0, 3)];
        let ghz = rng.uniform(2.2, 2.9);
        let ram = rng.uniform(64.0, 768.0);
        data.push(&[size, cores, ghz, ram], 5.0 * size / cores * ghz);
    }
    c.bench_function("random_forest_fit_500rows", |b| {
        b.iter(|| RandomForest::fit(&data, &RandomForestParams::default()).unwrap())
    });
    let forest = RandomForest::fit(&data, &RandomForestParams::default()).unwrap();
    c.bench_function("random_forest_predict", |b| {
        b.iter(|| forest.predict(&[42.0, 40.0, 2.4, 192.0]))
    });
}

fn bench_data_manager(c: &mut Criterion) {
    use fedci::network::{Link, NetworkTopology};
    use fedci::storage::DataId;
    use fedci::transfer::TransferMechanism;
    use unifaas::data::DataManager;

    // The staging hot path: 512 objects requested one task at a time
    // (second half joins in-flight transfers — the dedup path), then the
    // completion/pump loop drains every queued transfer. Exercises the
    // dense pair tables, the best-source memo and the maintained
    // outstanding/backlog counters end to end.
    c.bench_function("data_manager_stage_complete_512", |b| {
        b.iter_batched(
            || {
                let mut dm = DataManager::new(
                    NetworkTopology::uniform(4, Link::wan()),
                    TransferMechanism::Globus.default_params(),
                    2,
                );
                for i in 0..512u64 {
                    dm.store
                        .register(DataId(i), 1 << 20, fedci::endpoint::EndpointId(0));
                }
                dm
            },
            |mut dm| {
                let now = SimTime::ZERO;
                let mut pending = Vec::new();
                for i in 0..512u64 {
                    let req = dm.request_stage(
                        TaskId(i as u32),
                        &[DataId(i)],
                        fedci::endpoint::EndpointId(1),
                        now,
                    );
                    pending.extend(req.started);
                    // Dedup join: a second task wants the same object.
                    let join = dm.request_stage(
                        TaskId(1000 + i as u32),
                        &[DataId(i)],
                        fedci::endpoint::EndpointId(1),
                        now,
                    );
                    assert!(join.started.is_empty());
                }
                let mut completed = 0usize;
                while let Some(sx) = pending.pop() {
                    let out = dm.complete(sx.id, sx.completes_at, false);
                    pending.extend(out.started);
                    completed += 1;
                }
                assert_eq!(completed, 512);
                dm.bytes_moved()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_end_to_end_sim(c: &mut Criterion) {
    use fedci::hardware::ClusterSpec;
    use unifaas::prelude::*;
    c.bench_function("sim_run_500_task_bag_2ep", |b| {
        b.iter(|| {
            let cfg = Config::builder()
                .endpoint(EndpointConfig::new("a", ClusterSpec::taiyi(), 32))
                .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 16))
                .strategy(SchedulingStrategy::Dha { rescheduling: true })
                .build();
            let mut dag = Dag::new();
            let f = dag.register_function("stress");
            for _ in 0..500 {
                dag.add_task(TaskSpec::compute(f, 10.0), &[]);
            }
            SimRuntime::new(cfg, dag).run().unwrap().tasks_completed
        })
    });

    // The incremental state-sync path: elastic scaling turns on 1-second
    // periodic ticks, so this run's event stream is dominated by
    // `MockSync`/`ScaleTick` handling — the paths rebuilt around
    // transition-maintained counters instead of full-DAG scans.
    c.bench_function("sim_run_periodic_sync_dominated", |b| {
        use unifaas::config::ScalingConfig;
        b.iter(|| {
            let cfg = Config::builder()
                .endpoint(EndpointConfig::new("a", ClusterSpec::taiyi(), 32).elastic(8, 32, 4))
                .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 16).elastic(4, 16, 4))
                .strategy(SchedulingStrategy::Dha { rescheduling: true })
                .scaling(ScalingConfig {
                    enabled: true,
                    ..ScalingConfig::default()
                })
                .build();
            let mut dag = Dag::new();
            let f = dag.register_function("steady");
            for _ in 0..800 {
                dag.add_task(TaskSpec::compute(f, 20.0), &[]);
            }
            SimRuntime::new(cfg, dag).run().unwrap().events_processed
        })
    });
}

fn bench_tracing(c: &mut Criterion) {
    use fedci::hardware::ClusterSpec;
    use simkit::trace::{TraceLevel, Tracer};
    use simkit::SimTime;
    use unifaas::prelude::*;

    // The zero-cost-when-disabled claim at its smallest scale: a span pair
    // against a disabled tracer is two branch-on-level early returns.
    c.bench_function("trace_span_pair_disabled", |b| {
        let mut tr = Tracer::disabled();
        let name = tr.intern("span");
        let track = tr.intern("track");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tr.begin(SimTime::ZERO, name, track, i);
            tr.end(SimTime::ZERO, name, track, i);
            tr.len()
        })
    });
    c.bench_function("trace_span_pair_enabled", |b| {
        let mut tr = Tracer::new(TraceLevel::Full, 1 << 16);
        let name = tr.intern("span");
        let track = tr.intern("track");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tr.begin(SimTime::ZERO, name, track, i);
            tr.end(SimTime::ZERO, name, track, i);
            tr.len()
        })
    });

    // Whole-coordinator overhead: the same 500-task DHA run as
    // `sim_run_500_task_bag_2ep`, untraced vs fully traced. The untraced
    // variant must stay within noise of the baseline bench (CI gates the
    // e2e equivalent at 5%).
    let run = |trace: Option<TraceConfig>| {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::taiyi(), 32))
            .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 16))
            .strategy(SchedulingStrategy::Dha { rescheduling: true })
            .build();
        let mut dag = Dag::new();
        let f = dag.register_function("stress");
        for _ in 0..500 {
            dag.add_task(TaskSpec::compute(f, 10.0), &[]);
        }
        let mut rt = SimRuntime::new(cfg, dag);
        if let Some(tc) = trace {
            rt = rt.with_trace(tc);
        }
        rt.run().unwrap().tasks_completed
    };
    c.bench_function("sim_run_500_untraced", |b| b.iter(|| run(None)));
    c.bench_function("sim_run_500_traced_full", |b| {
        b.iter(|| run(Some(TraceConfig::default())))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_sched_hooks,
    bench_dag_analytics,
    bench_models,
    bench_data_manager,
    bench_end_to_end_sim,
    bench_tracing
);
criterion_main!(benches);
