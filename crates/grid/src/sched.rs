//! Heterogeneous grid nodes and an earliest-finish-time job scheduler.
//!
//! The paper's Grid is "heterogeneous networked hardware (from the ASCI
//! terraflop machines to workstations)". [`GridCluster`] models a set of
//! nodes with different sustained FLOP rates and a wired backhaul;
//! [`GridCluster::schedule`] places a batch of jobs greedily on the node
//! that finishes each job soonest (list scheduling), which `pg-partition`
//! uses to estimate grid-side response time for offloaded queries.

use pg_net::link::LinkModel;
use pg_sim::fault::FaultPlan;
use pg_sim::{Duration, SimTime};

/// One compute node in the grid.
#[derive(Debug, Clone)]
pub struct GridNode {
    /// Human-readable node name.
    pub name: String,
    /// Sustained throughput, floating-point operations per second.
    pub flops: f64,
}

impl GridNode {
    /// Construct a node.
    ///
    /// # Panics
    /// Panics on non-positive FLOP rate.
    pub fn new(name: impl Into<String>, flops: f64) -> Self {
        assert!(flops > 0.0, "flops must be positive");
        GridNode {
            name: name.into(),
            flops,
        }
    }

    /// Time for this node to execute `ops` operations.
    pub fn compute_time(&self, ops: u64) -> Duration {
        Duration::from_secs_f64(ops as f64 / self.flops)
    }
}

/// A unit of work shipped to the grid.
#[derive(Debug, Clone)]
pub struct Job {
    /// Label for reports.
    pub name: String,
    /// Operation count.
    pub ops: u64,
    /// Input payload that must cross the backhaul first, bytes.
    pub input_bytes: u64,
    /// Result payload returned over the backhaul, bytes.
    pub output_bytes: u64,
}

/// Placement of one job produced by the scheduler.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Index into the cluster's node list.
    pub node: usize,
    /// When the job starts on that node (relative to batch submission).
    pub start: Duration,
    /// When the job's result is back at the base station.
    pub done: Duration,
}

/// A set of grid nodes behind one wired backhaul link.
#[derive(Debug, Clone)]
pub struct GridCluster {
    nodes: Vec<GridNode>,
    backhaul: LinkModel,
    faults: FaultPlan,
}

impl GridCluster {
    /// Build a cluster.
    ///
    /// # Panics
    /// Panics when `nodes` is empty.
    pub fn new(nodes: Vec<GridNode>, backhaul: LinkModel) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        GridCluster {
            nodes,
            backhaul,
            faults: FaultPlan::none(),
        }
    }

    /// Install a fault plan; worker-outage windows (by node index) make
    /// workers unavailable while they last. The empty plan changes nothing.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// A small campus grid: one fast cluster node, two workstations.
    pub fn campus() -> Self {
        GridCluster::new(
            vec![
                GridNode::new("cluster-head", 50e9),
                GridNode::new("workstation-1", 5e9),
                GridNode::new("workstation-2", 5e9),
            ],
            LinkModel::wired_backhaul(),
        )
    }

    /// The node list.
    pub fn nodes(&self) -> &[GridNode] {
        &self.nodes
    }

    /// The backhaul link model.
    pub fn backhaul(&self) -> &LinkModel {
        &self.backhaul
    }

    /// Aggregate FLOP rate of the cluster.
    pub fn total_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// End-to-end time for a single job submitted at absolute instant `at`
    /// on the worker that finishes it first: a worker inside one of the
    /// plan's outage windows only starts the job once it recovers (the job
    /// queues — §3's graceful degradation: the cost of a dead worker is
    /// latency, not a lost answer).
    // The constructor rejects empty clusters, so min always finds a node.
    #[allow(clippy::expect_used)]
    pub fn single_job_time_at(&self, job: &Job, at: SimTime) -> Duration {
        let upload = self.backhaul.tx_time(job.input_bytes);
        let download = self.backhaul.tx_time(job.output_bytes);
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let ready = at + upload;
                let start = self.faults.worker_up_at(i, ready);
                start.since(at) + n.compute_time(job.ops) + download
            })
            .min()
            .expect("a grid cluster has at least one node")
    }

    /// Greedy earliest-finish-time list scheduling of a batch. Jobs are
    /// placed in the order given; uploads share the backhaul serially (one
    /// pipe into the machine room), computation overlaps across nodes.
    /// Returns per-job placements and the batch makespan.
    pub fn schedule(&self, jobs: &[Job]) -> (Vec<Placement>, Duration) {
        self.schedule_at(jobs, SimTime::ZERO)
    }

    /// [`schedule`][Self::schedule] for a batch submitted at absolute
    /// instant `at`: workers inside plan outage windows accept no work
    /// until they recover. With the empty plan this is exactly `schedule`.
    // The constructor rejects empty clusters, so min_by_key always finds
    // a node.
    #[allow(clippy::expect_used)]
    pub fn schedule_at(&self, jobs: &[Job], at: SimTime) -> (Vec<Placement>, Duration) {
        let mut node_free = vec![Duration::ZERO; self.nodes.len()];
        let mut uplink_free = Duration::ZERO;
        let mut placements = Vec::with_capacity(jobs.len());
        let mut makespan = Duration::ZERO;
        // Earliest start on node `i` once its queue frees at `free` (relative
        // to `at`), pushed past any outage window covering that instant.
        let earliest_start = |i: usize, free: Duration, upload_done: Duration| {
            let queued = if free > upload_done {
                free
            } else {
                upload_done
            };
            self.faults.worker_up_at(i, at + queued).since(at)
        };
        for job in jobs {
            // Upload serializes on the shared backhaul.
            let upload_done = uplink_free + self.backhaul.tx_time(job.input_bytes);
            uplink_free = upload_done;
            // Pick the node that finishes the job soonest.
            let (best, finish) = node_free
                .iter()
                .enumerate()
                .map(|(i, &free)| {
                    let start = earliest_start(i, free, upload_done);
                    (i, start + self.nodes[i].compute_time(job.ops))
                })
                .min_by_key(|&(_, f)| f)
                .expect("non-empty cluster");
            let start = earliest_start(best, node_free[best], upload_done);
            node_free[best] = finish;
            let done = finish + self.backhaul.tx_time(job.output_bytes);
            if done > makespan {
                makespan = done;
            }
            placements.push(Placement {
                node: best,
                start,
                done,
            });
        }
        (placements, makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(name: &str, ops: u64) -> Job {
        Job {
            name: name.into(),
            ops,
            input_bytes: 1_000,
            output_bytes: 100,
        }
    }

    #[test]
    fn compute_time_scales_inversely_with_flops() {
        let fast = GridNode::new("fast", 10e9);
        let slow = GridNode::new("slow", 1e9);
        assert_eq!(fast.compute_time(10_000_000_000).as_secs_f64(), 1.0);
        assert_eq!(slow.compute_time(10_000_000_000).as_secs_f64(), 10.0);
    }

    #[test]
    fn single_job_includes_transfer_both_ways() {
        let c = GridCluster::campus();
        let j = job("j", 50_000_000_000); // 1 s on the 50 GF head
        let t = c.single_job_time_at(&j, SimTime::ZERO);
        let expect =
            c.backhaul().tx_time(1_000) + Duration::from_secs(1) + c.backhaul().tx_time(100);
        assert_eq!(t, expect);
    }

    #[test]
    fn batch_overlaps_across_nodes() {
        // Three equal jobs on a 3-node cluster finish ~in parallel.
        let nodes = vec![
            GridNode::new("a", 1e9),
            GridNode::new("b", 1e9),
            GridNode::new("c", 1e9),
        ];
        let c = GridCluster::new(nodes, LinkModel::wired_backhaul());
        let jobs: Vec<Job> = (0..3)
            .map(|i| job(&format!("j{i}"), 2_000_000_000))
            .collect();
        let (placements, makespan) = c.schedule(&jobs);
        // All three nodes used.
        let mut used: Vec<usize> = placements.iter().map(|p| p.node).collect();
        used.sort_unstable();
        assert_eq!(used, vec![0, 1, 2]);
        // Makespan well under serial time (3 x 2 s).
        assert!(makespan.as_secs_f64() < 3.0, "makespan {makespan}");
    }

    #[test]
    fn fast_node_attracts_work() {
        let c = GridCluster::campus();
        let (p, _) = c.schedule(&[job("big", 10_000_000_000)]);
        assert_eq!(p[0].node, 0, "the 50 GF head should win");
    }

    #[test]
    fn uploads_serialize_on_the_backhaul() {
        let c = GridCluster::campus();
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job {
                name: format!("j{i}"),
                ops: 1,
                input_bytes: 100_000_000, // 8 s each at 100 Mbit/s
                output_bytes: 0,
            })
            .collect();
        let (_, makespan) = c.schedule(&jobs);
        assert!(
            makespan.as_secs_f64() > 30.0,
            "4 uploads x 8 s must serialize: {makespan}"
        );
    }

    #[test]
    fn dead_workers_queue_jobs_until_recovery() {
        let mut c = GridCluster::campus();
        let j = job("j", 50_000_000_000); // 1 s on the 50 GF head
        let clean = c.single_job_time_at(&j, SimTime::ZERO);
        // Kill every node for the first 100 s: the job waits, then runs.
        let mut b = FaultPlan::builder(1);
        for i in 0..c.nodes().len() {
            b = b.worker_outage(i, SimTime::ZERO, SimTime::from_secs(100));
        }
        c.set_fault_plan(b.build().unwrap());
        let t = c.single_job_time_at(&j, SimTime::ZERO);
        assert!(t.as_secs_f64() > 100.0, "must wait out the outage: {t}");
        assert!(t.as_secs_f64() < 100.0 + clean.as_secs_f64() + 1.0);
        // Submitting after recovery costs nothing extra.
        let after = c.single_job_time_at(&j, SimTime::from_secs(200));
        assert_eq!(after, clean);
    }

    #[test]
    fn outage_on_the_fast_node_diverts_work() {
        let mut c = GridCluster::campus();
        c.set_fault_plan(
            FaultPlan::builder(1)
                .worker_outage(0, SimTime::ZERO, SimTime::from_secs(1_000))
                .build()
                .unwrap(),
        );
        // With the 50 GF head dead, a workstation takes the job rather
        // than waiting 1000 s.
        let (p, _) = c.schedule_at(&[job("big", 10_000_000_000)], SimTime::ZERO);
        assert_ne!(p[0].node, 0, "head is down, work must divert");
    }

    #[test]
    fn empty_plan_leaves_schedule_unchanged() {
        let c = GridCluster::campus();
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(&format!("j{i}"), 1_000_000_000))
            .collect();
        let (p1, m1) = c.schedule(&jobs);
        let (p2, m2) = c.schedule_at(&jobs, SimTime::from_secs(777));
        assert_eq!(m1, m2);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!((a.node, a.start, a.done), (b.node, b.start, b.done));
        }
    }

    #[test]
    fn makespan_bounds_every_placement() {
        let c = GridCluster::campus();
        let jobs: Vec<Job> = (0..10)
            .map(|i| job(&format!("j{i}"), 1_000_000_000))
            .collect();
        let (p, makespan) = c.schedule(&jobs);
        assert!(p.iter().all(|x| x.done <= makespan));
        assert!(p.iter().all(|x| x.start < x.done));
    }
}
