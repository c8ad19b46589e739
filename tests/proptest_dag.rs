//! Property test of `Dag`'s adjacency against a `Vec<Vec<TaskId>>`
//! reference model.
//!
//! The DAG stores predecessors in one flat array and successors inline up
//! to a small count, spilling to the heap past it. The draws are shaped to
//! reach both sides of that boundary: fan-in goes up to 8, and half of all
//! dependency picks land on three hub tasks, whose successor lists grow
//! far past the inline capacity while later tasks keep arriving. A clone
//! taken halfway must keep the graph as it was then.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use taskgraph::{Dag, FunctionId, TaskId, TaskSpec};

/// The adjacency a plain `Vec<Vec<TaskId>>` model gives for the same adds.
#[derive(Clone, Default)]
struct Model {
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
}

impl Model {
    fn add(&mut self, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.preds.len() as u32);
        self.preds.push(deps.to_vec());
        self.succs.push(Vec::new());
        for d in deps {
            self.succs[d.index()].push(id);
        }
        id
    }
}

/// Distinct existing dependencies of the next task from raw draws: an even
/// draw picks one of the first three tasks (the hubs), an odd one any task.
fn deps_of(raw: &[u32], n_tasks: usize) -> Vec<TaskId> {
    let mut deps = Vec::new();
    if n_tasks == 0 {
        return deps;
    }
    for &r in raw {
        let pick = if r % 2 == 0 {
            (r / 2) as usize % n_tasks.min(3)
        } else {
            (r / 2) as usize % n_tasks
        };
        let d = TaskId(pick as u32);
        if !deps.contains(&d) {
            deps.push(d);
        }
    }
    deps
}

fn check(dag: &Dag, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(dag.len(), model.preds.len());
    for t in dag.task_ids() {
        prop_assert_eq!(dag.preds(t), &model.preds[t.index()][..], "preds of {}", t);
        prop_assert_eq!(dag.succs(t), &model.succs[t.index()][..], "succs of {}", t);
        prop_assert_eq!(dag.in_degree(t), model.preds[t.index()].len());
    }
    let roots: Vec<TaskId> = dag
        .task_ids()
        .filter(|t| model.preds[t.index()].is_empty())
        .collect();
    let sinks: Vec<TaskId> = dag
        .task_ids()
        .filter(|t| model.succs[t.index()].is_empty())
        .collect();
    prop_assert_eq!(dag.roots(), roots);
    prop_assert_eq!(dag.sinks(), sinks);
    prop_assert_eq!(
        dag.n_edges(),
        model.preds.iter().map(Vec::len).sum::<usize>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_matches_vec_of_vecs_model(adds in vec(vec(0u32..1000, 0..9), 1..160)) {
        let mut dag = Dag::new();
        let mut model = Model::default();
        let mut snapshot = None;
        for (i, raw) in adds.iter().enumerate() {
            let deps = deps_of(raw, dag.len());
            let id = dag.add_task(TaskSpec::compute(FunctionId(0), 1.0), &deps);
            prop_assert_eq!(id, model.add(&deps));
            if i == adds.len() / 2 {
                snapshot = Some((dag.clone(), model.clone()));
            }
        }
        check(&dag, &model)?;
        check(&dag.clone(), &model)?;
        let (old_dag, old_model) = snapshot.expect("taken halfway");
        check(&old_dag, &old_model)?;
    }
}
