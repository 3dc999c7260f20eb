//! Composition plans: DAGs of semantic service roles.

use pg_discovery::description::Constraint;

/// A role a service must fill in a composite task: a semantic class plus
/// hard constraints, exactly what the discovery layer matches on.
#[derive(Debug, Clone)]
pub struct Role {
    /// Step label (unique within a plan).
    pub name: String,
    /// Ontology class name the bound service must match.
    pub class: String,
    /// Hard constraints on the bound service.
    pub constraints: Vec<Constraint>,
    /// Optional steps enrich the result but their failure does not fail the
    /// composition (graceful degradation, §3).
    pub optional: bool,
}

impl Role {
    /// A required role of `class`.
    pub fn required(name: impl Into<String>, class: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            class: class.into(),
            constraints: Vec::new(),
            optional: false,
        }
    }

    /// An optional role of `class`.
    pub fn optional(name: impl Into<String>, class: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            class: class.into(),
            constraints: Vec::new(),
            optional: true,
        }
    }
}

/// One step of a plan: a role plus the indices of steps it depends on.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The role to fill.
    pub role: Role,
    /// Indices (into [`Plan::steps`]) that must complete first.
    pub deps: Vec<usize>,
}

/// A composition plan: a DAG of steps.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The task this plan realizes.
    pub task: String,
    /// Steps; dependencies refer to earlier entries only (checked).
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// Build a plan, validating the dependency structure.
    ///
    /// # Panics
    /// Panics when a step references itself, a later step, or an
    /// out-of-range index — all authoring errors. Because every edge points
    /// backwards, the structure is acyclic by construction.
    pub fn new(task: impl Into<String>, steps: Vec<PlanStep>) -> Self {
        for (i, s) in steps.iter().enumerate() {
            for &d in &s.deps {
                assert!(d < i, "step {i} depends on non-earlier step {d}");
            }
        }
        Plan {
            task: task.into(),
            steps,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Indices of required steps.
    pub fn required(&self) -> Vec<usize> {
        (0..self.steps.len())
            .filter(|&i| !self.steps[i].role.optional)
            .collect()
    }

    /// Indices of optional steps.
    pub fn optional(&self) -> Vec<usize> {
        (0..self.steps.len())
            .filter(|&i| self.steps[i].role.optional)
            .collect()
    }

    /// Length of the longest dependency chain (the plan's critical path).
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.steps.len()];
        for (i, s) in self.steps.iter().enumerate() {
            depth[i] = s.deps.iter().map(|&d| depth[d] + 1).max().unwrap_or(1);
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Plan {
        Plan::new(
            "diamond",
            vec![
                PlanStep {
                    role: Role::required("src", "SensorService"),
                    deps: vec![],
                },
                PlanStep {
                    role: Role::required("left", "ComputeService"),
                    deps: vec![0],
                },
                PlanStep {
                    role: Role::optional("right", "DataService"),
                    deps: vec![0],
                },
                PlanStep {
                    role: Role::required("join", "ComputeService"),
                    deps: vec![1, 2],
                },
            ],
        )
    }

    #[test]
    fn required_optional_split() {
        let p = diamond();
        assert_eq!(p.required(), vec![0, 1, 3]);
        assert_eq!(p.optional(), vec![2]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn critical_path_of_diamond_is_three() {
        assert_eq!(diamond().critical_path_len(), 3);
    }

    #[test]
    fn single_step_plan() {
        let p = Plan::new(
            "one",
            vec![PlanStep {
                role: Role::required("only", "Service"),
                deps: vec![],
            }],
        );
        assert_eq!(p.critical_path_len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-earlier")]
    fn forward_dependency_rejected() {
        Plan::new(
            "bad",
            vec![PlanStep {
                role: Role::required("a", "Service"),
                deps: vec![0], // self-reference
            }],
        );
    }
}
