//! The append-only task DAG.
//!
//! Acyclicity is guaranteed by construction: [`Dag::add_task`] requires
//! every dependency to be an already-existing task, so edges always point
//! from lower ids to higher ids. This mirrors UniFaaS's future-passing
//! programming model — you can only depend on a future you already hold —
//! and is what makes *dynamic* task graphs (tasks added during execution)
//! safe.
//!
//! Adjacency costs no heap allocation per task. A task's predecessors are
//! fixed when it is added, so all of them live in one append-only array
//! cut by per-task end offsets. Successors keep growing as later tasks
//! arrive, so each task stores up to [`INLINE_SUCCS`] of them in place and
//! spills to its own `Vec` only past that.

use crate::task::{FunctionId, TaskId, TaskSpec};

/// Successors a task stores without a heap allocation. Three keeps
/// [`Succs`] at the size of a bare `Vec` header (24 bytes).
const INLINE_SUCCS: usize = 3;

/// One task's successor list: in place while short, on the heap after.
#[derive(Clone, Debug)]
enum Succs {
    Inline(u32, [TaskId; INLINE_SUCCS]),
    Spilled(Vec<TaskId>),
}

impl Succs {
    const EMPTY: Succs = Succs::Inline(0, [TaskId(0); INLINE_SUCCS]);

    fn as_slice(&self) -> &[TaskId] {
        match self {
            Succs::Inline(len, ids) => &ids[..*len as usize],
            Succs::Spilled(v) => v,
        }
    }

    fn push(&mut self, t: TaskId) {
        match self {
            Succs::Inline(len, ids) if (*len as usize) < INLINE_SUCCS => {
                ids[*len as usize] = t;
                *len += 1;
            }
            Succs::Inline(_, ids) => {
                let mut v = Vec::with_capacity(2 * INLINE_SUCCS);
                v.extend_from_slice(ids);
                v.push(t);
                *self = Succs::Spilled(v);
            }
            Succs::Spilled(v) => v.push(t),
        }
    }
}

/// A workflow task graph.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    specs: Vec<TaskSpec>,
    /// Every task's predecessors, concatenated in task order.
    pred_ids: Vec<TaskId>,
    /// End of each task's run in `pred_ids`; it starts at the previous
    /// task's end (0 for the first task).
    pred_end: Vec<u32>,
    succs: Vec<Succs>,
    function_names: Vec<String>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Creates an empty DAG with room for `tasks` tasks and `edges` edges,
    /// so a generator that knows its size builds it without regrowing.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        Dag {
            specs: Vec::with_capacity(tasks),
            pred_ids: Vec::with_capacity(edges),
            pred_end: Vec::with_capacity(tasks),
            succs: Vec::with_capacity(tasks),
            function_names: Vec::new(),
        }
    }

    /// Registers a function name, returning its id. Re-registering the same
    /// name returns the existing id.
    pub fn register_function(&mut self, name: &str) -> FunctionId {
        if let Some(pos) = self.function_names.iter().position(|n| n == name) {
            return FunctionId(pos as u16);
        }
        assert!(
            self.function_names.len() < u16::MAX as usize,
            "too many distinct functions"
        );
        self.function_names.push(name.to_string());
        FunctionId((self.function_names.len() - 1) as u16)
    }

    /// Name of a registered function.
    pub fn function_name(&self, f: FunctionId) -> &str {
        &self.function_names[f.0 as usize]
    }

    /// Number of registered functions.
    pub fn n_functions(&self) -> usize {
        self.function_names.len()
    }

    /// Adds a task depending on `deps` (all must already exist). Returns the
    /// new task's id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is out of range (i.e. refers to a task that
    /// does not exist yet) or duplicated.
    pub fn add_task(&mut self, spec: TaskSpec, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.specs.len() as u32);
        for (i, d) in deps.iter().enumerate() {
            assert!(
                d.index() < self.specs.len(),
                "dependency {d} does not exist yet (adding {id})"
            );
            assert!(
                !deps[..i].contains(d),
                "duplicate dependency {d} when adding {id}"
            );
        }
        self.specs.push(spec);
        self.pred_ids.extend_from_slice(deps);
        let end = u32::try_from(self.pred_ids.len()).expect("too many edges");
        self.pred_end.push(end);
        self.succs.push(Succs::EMPTY);
        for d in deps {
            self.succs[d.index()].push(id);
        }
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.pred_ids.len()
    }

    /// The spec of a task.
    pub fn spec(&self, t: TaskId) -> &TaskSpec {
        &self.specs[t.index()]
    }

    /// Mutable access to a task's spec (used by generators to tune sizes).
    pub fn spec_mut(&mut self, t: TaskId) -> &mut TaskSpec {
        &mut self.specs[t.index()]
    }

    /// Direct predecessors (dependencies) of a task.
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.pred_ids[self.pred_range(t)]
    }

    /// Direct successors (dependents) of a task.
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        self.succs[t.index()].as_slice()
    }

    /// Bytes a task reads: its predecessors' outputs plus its external
    /// input.
    pub fn input_bytes(&self, t: TaskId) -> u64 {
        self.preds(t)
            .iter()
            .map(|p| self.spec(*p).output_bytes)
            .sum::<u64>()
            + self.spec(t).external_input_bytes
    }

    /// In-degree of a task.
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.pred_range(t).len()
    }

    fn pred_range(&self, t: TaskId) -> std::ops::Range<usize> {
        let i = t.index();
        let start = if i == 0 { 0 } else { self.pred_end[i - 1] };
        start as usize..self.pred_end[i] as usize
    }

    /// Iterator over all task ids in creation order (which is a valid
    /// topological order by construction).
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.specs.len() as u32).map(TaskId)
    }

    /// Ids of all root tasks (no dependencies).
    pub fn roots(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.in_degree(*t) == 0)
            .collect()
    }

    /// Ids of all sink tasks (no dependents).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.succs(*t).is_empty())
            .collect()
    }

    /// Total compute across all tasks, in reference-seconds.
    pub fn total_compute_seconds(&self) -> f64 {
        self.specs.iter().map(|s| s.compute_seconds).sum()
    }

    /// Total data volume: external inputs plus every task's output, in
    /// bytes. This matches the paper's "total size of the input,
    /// intermediate, and output data".
    pub fn total_data_bytes(&self) -> u64 {
        self.specs
            .iter()
            .map(|s| s.output_bytes + s.external_input_bytes)
            .sum()
    }

    /// Summary statistics used to validate generated workloads against the
    /// numbers published in Fig. 8.
    pub fn summary(&self) -> DagSummary {
        DagSummary {
            n_tasks: self.len(),
            n_edges: self.n_edges(),
            n_functions: self.n_functions(),
            total_compute_seconds: self.total_compute_seconds(),
            mean_task_seconds: if self.is_empty() {
                0.0
            } else {
                self.total_compute_seconds() / self.len() as f64
            },
            total_data_bytes: self.total_data_bytes(),
        }
    }
}

/// Aggregate workload statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DagSummary {
    /// Number of tasks.
    pub n_tasks: usize,
    /// Number of edges.
    pub n_edges: usize,
    /// Number of distinct functions.
    pub n_functions: usize,
    /// Total compute across tasks (reference seconds).
    pub total_compute_seconds: f64,
    /// Mean task duration (reference seconds).
    pub mean_task_seconds: f64,
    /// Total input + intermediate + output bytes.
    pub total_data_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(f: u16, secs: f64) -> TaskSpec {
        TaskSpec::compute(FunctionId(f), secs)
    }

    #[test]
    fn diamond_graph_structure() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(0, 1.0), &[]);
        let b = dag.add_task(spec(1, 2.0), &[a]);
        let c = dag.add_task(spec(1, 3.0), &[a]);
        let d = dag.add_task(spec(2, 4.0), &[b, c]);
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.n_edges(), 4);
        assert_eq!(dag.preds(d), &[b, c]);
        assert_eq!(dag.succs(a), &[b, c]);
        assert_eq!(dag.roots(), vec![a]);
        assert_eq!(dag.sinks(), vec![d]);
        assert_eq!(dag.in_degree(d), 2);
        assert_eq!(dag.total_compute_seconds(), 10.0);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut dag = Dag::new();
        dag.add_task(spec(0, 1.0), &[TaskId(5)]);
    }

    #[test]
    #[should_panic(expected = "duplicate dependency")]
    fn duplicate_dependency_panics() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(0, 1.0), &[]);
        dag.add_task(spec(0, 1.0), &[a, a]);
    }

    #[test]
    fn function_registry_deduplicates() {
        let mut dag = Dag::new();
        let f1 = dag.register_function("dock");
        let f2 = dag.register_function("score");
        let f3 = dag.register_function("dock");
        assert_eq!(f1, f3);
        assert_ne!(f1, f2);
        assert_eq!(dag.function_name(f2), "score");
        assert_eq!(dag.n_functions(), 2);
    }

    #[test]
    fn summary_statistics() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(0, 10.0).with_output_bytes(100), &[]);
        dag.add_task(spec(1, 20.0).with_external_input_bytes(50), &[a]);
        let s = dag.summary();
        assert_eq!(s.n_tasks, 2);
        assert_eq!(s.n_edges, 1);
        assert_eq!(s.total_compute_seconds, 30.0);
        assert_eq!(s.mean_task_seconds, 15.0);
        assert_eq!(s.total_data_bytes, 150);
    }

    #[test]
    fn creation_order_is_topological() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(0, 1.0), &[]);
        let b = dag.add_task(spec(0, 1.0), &[a]);
        let c = dag.add_task(spec(0, 1.0), &[a, b]);
        for t in dag.task_ids() {
            for p in dag.preds(t) {
                assert!(p.0 < t.0, "edge must point forward");
            }
        }
        let _ = c;
    }

    #[test]
    fn successor_list_is_a_vec_header_wide_and_spills_in_order() {
        assert!(std::mem::size_of::<Succs>() <= std::mem::size_of::<Vec<TaskId>>());
        let mut dag = Dag::new();
        let root = dag.add_task(spec(0, 1.0), &[]);
        let kids: Vec<TaskId> = (0..2 * INLINE_SUCCS + 1)
            .map(|_| dag.add_task(spec(0, 1.0), &[root]))
            .collect();
        assert_eq!(dag.succs(root), &kids[..]);
        assert_eq!(dag.n_edges(), kids.len());
        assert_eq!(dag.clone().succs(root), &kids[..]);
    }

    #[test]
    fn empty_dag() {
        let dag = Dag::new();
        assert!(dag.is_empty());
        assert!(dag.roots().is_empty());
        assert!(dag.sinks().is_empty());
        assert_eq!(dag.summary().mean_task_seconds, 0.0);
    }
}
