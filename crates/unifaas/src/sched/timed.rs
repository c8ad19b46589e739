//! The meter's view of the scheduler: a decorator that times every hook
//! the runtime's `sched` invokes, so that only a metered run reads the
//! wall clock around a scheduling decision.

use super::{SchedCtx, Scheduler};
use fedci::endpoint::EndpointId;
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use taskgraph::TaskId;

/// A [`Scheduler`] that times each decision hook of `inner` and forwards
/// every call unchanged. `name`, `wants_ticks`, `has_idle_work` and
/// `on_task_removed` are forwarded untimed: the runtime calls them outside
/// its hook accounting.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    wall: Rc<Cell<Duration>>,
}

impl TimedScheduler {
    /// Wraps `inner`; the returned handle holds the wall time inside its
    /// hooks so far. The simulator is single-threaded, so a plain cell does.
    pub fn new(inner: Box<dyn Scheduler>) -> (TimedScheduler, Rc<Cell<Duration>>) {
        let wall = Rc::default();
        let timed = TimedScheduler {
            inner,
            wall: Rc::clone(&wall),
        };
        (timed, wall)
    }

    fn timed<T>(&mut self, hook: impl FnOnce(&mut dyn Scheduler) -> T) -> T {
        let t0 = Instant::now();
        let out = hook(self.inner.as_mut());
        self.wall.set(self.wall.get() + t0.elapsed());
        out
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tasks_added(&mut self, ctx: &mut SchedCtx, tasks: &[TaskId]) {
        self.timed(|s| s.on_tasks_added(ctx, tasks))
    }

    fn on_tasks_ready(&mut self, ctx: &mut SchedCtx, tasks: &[TaskId]) -> usize {
        self.timed(|s| s.on_tasks_ready(ctx, tasks))
    }

    fn on_staging_complete(&mut self, ctx: &mut SchedCtx, task: TaskId) {
        self.timed(|s| s.on_staging_complete(ctx, task))
    }

    fn on_workers_idle(&mut self, ctx: &mut SchedCtx, idle: &[(EndpointId, usize)]) {
        self.timed(|s| s.on_workers_idle(ctx, idle))
    }

    fn has_idle_work(&self, ep: EndpointId) -> bool {
        self.inner.has_idle_work(ep)
    }

    fn on_capacity_change(&mut self, ctx: &mut SchedCtx) {
        self.timed(|s| s.on_capacity_change(ctx))
    }

    fn on_tick(&mut self, ctx: &mut SchedCtx) {
        self.timed(|s| s.on_tick(ctx))
    }

    fn on_task_removed(&mut self, task: TaskId) {
        self.inner.on_task_removed(task)
    }

    fn wants_ticks(&self) -> bool {
        self.inner.wants_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every query with a fixed value, after a busy microsecond
    /// that a timed call could not miss.
    struct Slow;

    fn busy() {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(1) {}
    }

    impl Scheduler for Slow {
        fn name(&self) -> &'static str {
            busy();
            "slow"
        }

        fn on_tasks_ready(&mut self, _: &mut SchedCtx, tasks: &[TaskId]) -> usize {
            tasks.len()
        }

        fn on_staging_complete(&mut self, _: &mut SchedCtx, _: TaskId) {}

        fn has_idle_work(&self, ep: EndpointId) -> bool {
            busy();
            ep.0 == 1
        }

        fn on_task_removed(&mut self, _: TaskId) {
            busy();
        }

        fn wants_ticks(&self) -> bool {
            busy();
            true
        }
    }

    #[test]
    fn queries_are_forwarded_untimed() {
        let (mut timed, wall) = TimedScheduler::new(Box::new(Slow));
        assert_eq!(timed.name(), "slow");
        assert!(timed.wants_ticks());
        assert!(timed.has_idle_work(EndpointId(1)) && !timed.has_idle_work(EndpointId(0)));
        timed.on_task_removed(TaskId(0));
        assert_eq!(wall.get(), Duration::ZERO);
    }
}
