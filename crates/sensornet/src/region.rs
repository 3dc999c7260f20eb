//! Spatial predicates for `WHERE` clauses ("Average Temperature in room #210").

use pg_net::geom::Point;
use pg_net::topology::{NodeId, Topology};

/// An axis-aligned box, the spatial footprint of a room/floor/zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Minimum corner (inclusive).
    pub min: Point,
    /// Maximum corner (inclusive).
    pub max: Point,
}

impl Region {
    /// A 2-D room footprint spanning all heights. Corner order does not
    /// matter: the coordinates are normalized, so this never fails.
    pub fn room(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Region {
            min: Point::new(x0.min(x1), y0.min(y1), f64::NEG_INFINITY),
            max: Point::new(x0.max(x1), y0.max(y1), f64::INFINITY),
        }
    }

    /// Does the region contain `p`?
    pub fn contains(&self, p: &Point) -> bool {
        (self.min.x..=self.max.x).contains(&p.x)
            && (self.min.y..=self.max.y).contains(&p.y)
            && (self.min.z..=self.max.z).contains(&p.z)
    }

    /// The ids of all topology nodes inside the region.
    pub fn members(&self, topo: &Topology) -> Vec<NodeId> {
        topo.nodes()
            .filter(|&n| self.contains(&topo.position(n)))
            .collect()
    }

    /// Volume (or area when flat), for region-averaging resolution maths.
    pub fn extent(&self) -> (f64, f64, f64) {
        (
            self.max.x - self.min.x,
            self.max.y - self.min.y,
            self.max.z - self.min.z,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_is_inclusive() {
        let r = Region::room(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(&Point::flat(0.0, 0.0)));
        assert!(r.contains(&Point::flat(10.0, 10.0)));
        assert!(r.contains(&Point::new(5.0, 5.0, 99.0))); // any height
        assert!(!r.contains(&Point::flat(10.1, 5.0)));
    }

    #[test]
    fn members_filters_topology() {
        let t = Topology::grid(4, 4, 10.0, 11.0); // nodes at 0,10,20,30
        let r = Region::room(-1.0, -1.0, 15.0, 15.0); // the 2x2 lower corner
        let m = r.members(&t);
        assert_eq!(m.len(), 4);
        assert!(m.contains(&NodeId(0)) && m.contains(&NodeId(5)));
    }

    #[test]
    fn room_normalizes_corner_order() {
        assert_eq!(
            Region::room(10.0, 10.0, 0.0, 0.0),
            Region::room(0.0, 0.0, 10.0, 10.0)
        );
    }
}
