//! HTN-style task decomposition.
//!
//! "For task categories that are well understood a-priori, this can be done
//! by hard coding specific decompositions. However, in the more general
//! case, this requires the use of a planner." (§3, citing HTN planning
//! \[11\]). A [`MethodLibrary`] maps compound task names to decomposition
//! methods; [`MethodLibrary::decompose`] expands a task into a flat
//! [`Plan`] DAG of primitive roles, trying alternative methods in order
//! when a decomposition fails (e.g. on recursion-depth exhaustion).

use crate::plan::{Plan, PlanStep, Role};
use std::collections::BTreeMap;

/// One node of a decomposition method.
#[derive(Debug, Clone)]
pub enum TaskNode {
    /// A primitive step: fill this role.
    Primitive(Role),
    /// A compound sub-task to expand recursively.
    Compound(String),
}

/// A decomposition method: sub-task nodes plus local dependency edges
/// (indices into `nodes`, each edge pointing backwards).
#[derive(Debug, Clone)]
pub struct Method {
    /// The sub-tasks this method produces.
    pub nodes: Vec<TaskNode>,
    /// `deps[i]` = indices of nodes that must finish before node `i`.
    pub deps: Vec<Vec<usize>>,
}

impl Method {
    /// A purely sequential method (each node depends on its predecessor).
    pub fn sequence(nodes: Vec<TaskNode>) -> Self {
        let deps = (0..nodes.len())
            .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
            .collect();
        Method { nodes, deps }
    }

    /// A fully parallel method (no local edges).
    pub fn parallel(nodes: Vec<TaskNode>) -> Self {
        let deps = vec![Vec::new(); nodes.len()];
        Method { nodes, deps }
    }
}

/// Errors from decomposition.
#[derive(Debug, Clone, PartialEq)]
pub enum DecomposeError {
    /// No method is registered for a compound task.
    UnknownTask(String),
    /// Expansion exceeded the depth limit (recursive methods).
    DepthExceeded(String),
}

/// The method library.
#[derive(Debug, Clone, Default)]
pub struct MethodLibrary {
    methods: BTreeMap<String, Vec<Method>>,
}

impl MethodLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an (additional) method for `task`. Methods are tried in
    /// registration order.
    pub fn add_method(&mut self, task: impl Into<String>, m: Method) {
        self.methods.entry(task.into()).or_default().push(m);
    }

    /// Tasks with at least one method.
    pub fn tasks(&self) -> impl Iterator<Item = &str> {
        self.methods.keys().map(String::as_str)
    }

    /// Expand `task` into a flat plan, trying methods in order.
    pub fn decompose(&self, task: &str) -> Result<Plan, DecomposeError> {
        let mut steps = Vec::new();
        self.expand(task, &mut steps, 0)?;
        Ok(Plan::new(task, steps))
    }

    /// Expand one compound task; returns the indices of its exit steps
    /// (nodes no other node in the method depends on) so callers can hang
    /// dependencies on the whole expansion.
    fn expand(
        &self,
        task: &str,
        steps: &mut Vec<PlanStep>,
        depth: u32,
    ) -> Result<Vec<usize>, DecomposeError> {
        const MAX_DEPTH: u32 = 16;
        if depth > MAX_DEPTH {
            return Err(DecomposeError::DepthExceeded(task.to_string()));
        }
        let methods = self
            .methods
            .get(task)
            .ok_or_else(|| DecomposeError::UnknownTask(task.to_string()))?;
        let mut last_err = None;
        'methods: for m in methods {
            let checkpoint = steps.len();
            // Exit-step indices of each expanded node.
            let mut node_exits: Vec<Vec<usize>> = Vec::with_capacity(m.nodes.len());
            // Entry-step indices of each expanded node (for wiring deps).
            let mut node_entries: Vec<Vec<usize>> = Vec::with_capacity(m.nodes.len());
            for (ni, node) in m.nodes.iter().enumerate() {
                // Global deps for this node: the exits of its local deps.
                let upstream: Vec<usize> = m.deps[ni]
                    .iter()
                    .flat_map(|&d| node_exits[d].iter().copied())
                    .collect();
                match node {
                    TaskNode::Primitive(role) => {
                        let idx = steps.len();
                        steps.push(PlanStep {
                            role: role.clone(),
                            deps: upstream,
                        });
                        node_entries.push(vec![idx]);
                        node_exits.push(vec![idx]);
                    }
                    TaskNode::Compound(sub) => {
                        let entry_mark = steps.len();
                        match self.expand(sub, steps, depth + 1) {
                            Ok(exits) => {
                                // Wire upstream edges into the expansion's
                                // entry steps (those with no deps inside it).
                                for s in steps[entry_mark..].iter_mut() {
                                    if s.deps.iter().all(|&d| d < entry_mark) && s.deps.is_empty() {
                                        s.deps = upstream.clone();
                                    }
                                }
                                node_entries.push(vec![entry_mark]);
                                node_exits.push(exits);
                            }
                            Err(e) => {
                                steps.truncate(checkpoint);
                                last_err = Some(e);
                                continue 'methods;
                            }
                        }
                    }
                }
            }
            // Exits of the whole method: nodes nobody depends on locally.
            let mut depended: Vec<bool> = vec![false; m.nodes.len()];
            for ds in &m.deps {
                for &d in ds {
                    depended[d] = true;
                }
            }
            let exits = (0..m.nodes.len())
                .filter(|&i| !depended[i])
                .flat_map(|i| node_exits[i].iter().copied())
                .collect();
            return Ok(exits);
        }
        Err(last_err.unwrap_or_else(|| DecomposeError::UnknownTask(task.to_string())))
    }

    /// The paper's stream-analysis example plus the building-fire tasks, as
    /// the standard demo library.
    pub fn pervasive_grid() -> Self {
        let mut lib = MethodLibrary::new();

        // §3: "generating decision trees, computing their Fourier spectra,
        // choosing the dominant components, and combining them to create a
        // single tree."
        lib.add_method(
            "stream-ensemble-analysis",
            Method::sequence(vec![
                TaskNode::Primitive(Role::required("generate-trees", "DecisionTreeService")),
                TaskNode::Primitive(Role::required("fourier-spectra", "LinearAlgebraService")),
                TaskNode::Primitive(Role::required("choose-dominant", "LinearAlgebraService")),
                TaskNode::Primitive(Role::required("combine-tree", "DecisionTreeService")),
            ]),
        );

        // The fire-response composite: sample sensors and fetch the floor
        // plan in parallel, solve the PDE, render on the handheld; weather
        // enrichment is optional.
        lib.add_method(
            "temperature-distribution",
            Method {
                nodes: vec![
                    TaskNode::Primitive(Role::required("collect-readings", "TemperatureSensor")),
                    TaskNode::Primitive(Role::required("floor-plan", "MapService")),
                    TaskNode::Primitive(Role::optional("weather", "WeatherService")),
                    TaskNode::Primitive(Role::required("solve-pde", "PdeSolverService")),
                    TaskNode::Primitive(Role::required("render", "DisplayService")),
                ],
                deps: vec![vec![], vec![], vec![], vec![0, 1], vec![3, 2]],
            },
        );

        // Health-monitoring correlation (§1's first scenario), built from a
        // compound sub-task so decomposition recursion is exercised.
        lib.add_method(
            "toxin-correlation",
            Method::sequence(vec![
                TaskNode::Compound("gather-streams".into()),
                TaskNode::Primitive(Role::required("cluster", "ClusteringService")),
                TaskNode::Primitive(Role::optional("archive", "StorageService")),
            ]),
        );
        lib.add_method(
            "gather-streams",
            Method::parallel(vec![
                TaskNode::Primitive(Role::required("toxin-feed", "ToxinSensor")),
                TaskNode::Primitive(Role::required("hospital-feed", "HospitalReportService")),
                TaskNode::Primitive(Role::optional("pathogen-feed", "PathogenSensor")),
            ]),
        );
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_method_chains_steps() {
        let lib = MethodLibrary::pervasive_grid();
        let p = lib.decompose("stream-ensemble-analysis").unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.steps[0].deps, Vec::<usize>::new());
        assert_eq!(p.steps[1].deps, vec![0]);
        assert_eq!(p.steps[3].deps, vec![2]);
        assert_eq!(p.critical_path_len(), 4);
    }

    #[test]
    fn dag_method_preserves_parallelism() {
        let lib = MethodLibrary::pervasive_grid();
        let p = lib.decompose("temperature-distribution").unwrap();
        assert_eq!(p.len(), 5);
        // collect-readings and floor-plan are independent roots.
        assert!(p.steps[0].deps.is_empty());
        assert!(p.steps[1].deps.is_empty());
        // solve-pde waits on both.
        assert_eq!(p.steps[3].deps, vec![0, 1]);
        assert_eq!(p.critical_path_len(), 3);
        assert_eq!(p.optional(), vec![2]);
    }

    #[test]
    fn compound_subtasks_expand_recursively() {
        let lib = MethodLibrary::pervasive_grid();
        let p = lib.decompose("toxin-correlation").unwrap();
        // gather-streams expands to 3 primitives + cluster + archive.
        assert_eq!(p.len(), 5);
        // cluster depends on all exits of the parallel expansion.
        let cluster = p
            .steps
            .iter()
            .position(|s| s.role.name == "cluster")
            .unwrap();
        assert_eq!(p.steps[cluster].deps.len(), 3);
    }

    #[test]
    fn unknown_task_errors() {
        let lib = MethodLibrary::pervasive_grid();
        assert!(matches!(
            lib.decompose("no-such-task"),
            Err(DecomposeError::UnknownTask(t)) if t == "no-such-task"
        ));
    }

    #[test]
    fn infinite_recursion_is_cut_and_falls_back() {
        let mut lib = MethodLibrary::new();
        // First method recurses forever; second is a working fallback.
        lib.add_method(
            "loop",
            Method::sequence(vec![TaskNode::Compound("loop".into())]),
        );
        lib.add_method(
            "loop",
            Method::sequence(vec![TaskNode::Primitive(Role::required("base", "Service"))]),
        );
        let p = lib.decompose("loop").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.steps[0].role.name, "base");
    }

    #[test]
    fn pure_recursion_exhausts_depth() {
        let mut lib = MethodLibrary::new();
        lib.add_method(
            "loop",
            Method::sequence(vec![TaskNode::Compound("loop".into())]),
        );
        assert!(matches!(
            lib.decompose("loop"),
            Err(DecomposeError::DepthExceeded(_))
        ));
    }
}
