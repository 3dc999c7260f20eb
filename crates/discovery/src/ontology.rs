//! A small class ontology with subsumption (our DAML/OWL stand-in).
//!
//! Classes form a DAG (multiple inheritance allowed). The two queries the
//! matcher needs are *subsumption* (`is D a kind of C?`) and *semantic
//! distance* (how many specialization hops separate them) — enough to
//! reproduce the exact/plug-in/subsume matching grades of the DAML-S
//! matchmaking literature the paper builds on (DReggie [19, 4]).

use std::collections::{HashMap, VecDeque};

/// Index of a class within one [`Ontology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

#[derive(Debug, Clone)]
struct ClassInfo {
    parents: Vec<ClassId>,
    /// Reverse edges, maintained by `add_class`: classes listing this one
    /// as a parent. Lets the matcher walk *down* the DAG (descendants)
    /// without scanning every class.
    children: Vec<ClassId>,
}

/// A class DAG.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    classes: Vec<ClassInfo>,
    by_name: HashMap<String, ClassId>,
}

impl Ontology {
    /// An empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a class under the given parents; returns its id.
    ///
    /// # Panics
    /// Panics on a duplicate name or an unknown parent id (both are
    /// authoring errors in a hand-built ontology).
    pub fn add_class(&mut self, name: &str, parents: &[ClassId]) -> ClassId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate class name: {name}"
        );
        for p in parents {
            assert!(
                (p.0 as usize) < self.classes.len(),
                "unknown parent id {p:?}"
            );
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassInfo {
            parents: parents.to_vec(),
            children: Vec::new(),
        });
        for p in parents {
            self.classes[p.0 as usize].children.push(id);
        }
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look a class up by name.
    pub fn class(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the ontology empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Minimum number of specialization hops from `descendant` up to
    /// `ancestor`; `Some(0)` when equal, `None` when `ancestor` does not
    /// subsume `descendant`.
    pub fn up_distance(&self, descendant: ClassId, ancestor: ClassId) -> Option<u32> {
        if descendant == ancestor {
            return Some(0);
        }
        let mut seen = vec![false; self.classes.len()];
        let mut q = VecDeque::from([(descendant, 0u32)]);
        seen[descendant.0 as usize] = true;
        while let Some((c, d)) = q.pop_front() {
            for &p in &self.classes[c.0 as usize].parents {
                if p == ancestor {
                    return Some(d + 1);
                }
                if !seen[p.0 as usize] {
                    seen[p.0 as usize] = true;
                    q.push_back((p, d + 1));
                }
            }
        }
        None
    }

    /// Does `ancestor` subsume `descendant` (including equality)?
    pub fn subsumes(&self, ancestor: ClassId, descendant: ClassId) -> bool {
        self.up_distance(descendant, ancestor).is_some()
    }

    /// Every class subsumed by `c` (specializations), `c` included,
    /// ascending by id.
    pub fn descendants(&self, c: ClassId) -> Vec<ClassId> {
        self.closure(c, |info| &info.children)
    }

    /// Every class subsuming `c` (generalizations), `c` included,
    /// ascending by id.
    pub fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        self.closure(c, |info| &info.parents)
    }

    /// Classes whose services can match a request for `c` at all — the
    /// union of `c`'s descendants (Exact/Subsumed grades) and ancestors
    /// (PlugIn grade), ascending by id and deduplicated. This is the
    /// candidate set an indexed matcher scans instead of the full registry.
    pub fn match_candidates(&self, c: ClassId) -> Vec<ClassId> {
        let mut all = self.descendants(c);
        all.extend(self.ancestors(c));
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Reachable set from `c` along `edges`, `c` included, ascending by id.
    fn closure(&self, c: ClassId, edges: impl Fn(&ClassInfo) -> &Vec<ClassId>) -> Vec<ClassId> {
        let mut seen = vec![false; self.classes.len()];
        seen[c.0 as usize] = true;
        let mut q = VecDeque::from([c]);
        let mut out = vec![c];
        while let Some(u) = q.pop_front() {
            for &v in edges(&self.classes[u.0 as usize]) {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    out.push(v);
                    q.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The standard pervasive-grid ontology used by examples and tests:
    /// a service taxonomy covering the paper's printer example, the sensor
    /// services of §4, and the grid-side compute services.
    pub fn pervasive_grid() -> Self {
        let mut o = Ontology::new();
        let service = o.add_class("Service", &[]);

        // Devices & peripherals (the §3 printer example).
        let device = o.add_class("DeviceService", &[service]);
        let printer = o.add_class("PrinterService", &[device]);
        o.add_class("ColorPrinterService", &[printer]);
        o.add_class("LaserPrinterService", &[printer]);
        o.add_class("DisplayService", &[device]);

        // Sensing (the §1/§4 scenarios).
        let sensor = o.add_class("SensorService", &[service]);
        let env = o.add_class("EnvironmentSensor", &[sensor]);
        o.add_class("TemperatureSensor", &[env]);
        o.add_class("ToxinSensor", &[env]);
        o.add_class("PathogenSensor", &[env]);
        o.add_class("LocationSensor", &[sensor]);

        // Data (hospital reports, intelligence databases, …).
        let data = o.add_class("DataService", &[service]);
        o.add_class("HospitalReportService", &[data]);
        o.add_class("WeatherService", &[data]);
        o.add_class("MapService", &[data]);

        // Computation (the wired grid).
        let compute = o.add_class("ComputeService", &[service]);
        let solver = o.add_class("SolverService", &[compute]);
        o.add_class("PdeSolverService", &[solver]);
        o.add_class("LinearAlgebraService", &[solver]);
        let mining = o.add_class("MiningService", &[compute]);
        o.add_class("ClusteringService", &[mining]);
        o.add_class("DecisionTreeService", &[mining]);
        o.add_class("StorageService", &[compute]);

        // Infrastructure roles.
        o.add_class("BrokerService", &[service]);
        o.add_class("CompositionService", &[service]);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsumption_and_distance() {
        let o = Ontology::pervasive_grid();
        let service = o.class("Service").unwrap();
        let sensor = o.class("SensorService").unwrap();
        let temp = o.class("TemperatureSensor").unwrap();
        assert!(o.subsumes(service, temp));
        assert!(o.subsumes(sensor, temp));
        assert!(!o.subsumes(temp, sensor));
        assert_eq!(o.up_distance(temp, sensor), Some(2)); // temp -> env -> sensor
        assert_eq!(o.up_distance(temp, temp), Some(0));
        assert_eq!(o.up_distance(sensor, temp), None);
    }

    #[test]
    fn unrelated_classes_do_not_subsume() {
        let o = Ontology::pervasive_grid();
        let printer = o.class("PrinterService").unwrap();
        let temp = o.class("TemperatureSensor").unwrap();
        assert!(!o.subsumes(printer, temp));
        assert!(!o.subsumes(temp, printer));
    }

    #[test]
    fn multiple_inheritance_takes_shortest_path() {
        let mut o = Ontology::new();
        let a = o.add_class("A", &[]);
        let b = o.add_class("B", &[a]);
        let c = o.add_class("C", &[b]);
        // D under both A (directly) and C (deep).
        let d = o.add_class("D", &[c, a]);
        assert_eq!(o.up_distance(d, a), Some(1)); // direct edge wins
        assert_eq!(o.up_distance(d, b), Some(2));
    }

    #[test]
    fn lookup_by_name() {
        let o = Ontology::pervasive_grid();
        assert!(o.class("PdeSolverService").is_some());
        assert!(o.class("NoSuchService").is_none());
    }

    #[test]
    fn descendants_and_ancestors_walk_the_dag() {
        let o = Ontology::pervasive_grid();
        let sensor = o.class("SensorService").unwrap();
        let temp = o.class("TemperatureSensor").unwrap();
        let service = o.class("Service").unwrap();

        let down = o.descendants(sensor);
        assert!(down.contains(&sensor) && down.contains(&temp));
        assert!(!down.contains(&service));
        let up = o.ancestors(temp);
        assert_eq!(
            up,
            vec![service, sensor, o.class("EnvironmentSensor").unwrap(), temp]
        );

        // The candidate set is exactly the classes class_score accepts.
        let candidates = o.match_candidates(sensor);
        for c in (0..o.len() as u32).map(ClassId) {
            let matchable = o.subsumes(sensor, c) || o.subsumes(c, sensor);
            assert_eq!(candidates.contains(&c), matchable, "class {c:?}");
        }
    }

    #[test]
    fn multiple_inheritance_closure_dedups() {
        let mut o = Ontology::new();
        let a = o.add_class("A", &[]);
        let b = o.add_class("B", &[a]);
        let c = o.add_class("C", &[a]);
        let d = o.add_class("D", &[b, c]);
        assert_eq!(o.descendants(a), vec![a, b, c, d]);
        assert_eq!(o.ancestors(d), vec![a, b, c, d]);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_names_rejected() {
        let mut o = Ontology::new();
        o.add_class("X", &[]);
        o.add_class("X", &[]);
    }
}
