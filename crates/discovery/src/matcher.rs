//! The semantic matcher: fuzzy, constraint-aware, ranked.
//!
//! "The matching of a request to services is semantic and uses the DAML
//! descriptions. This matching is fuzzy, and often recommends a ranked list
//! of matches." (§3)
//!
//! Matching proceeds in three stages:
//!
//! 1. **Class grade** — the exact/subsume/plug-in lattice of the DAML-S
//!    matchmaker literature: a service whose class equals the requested
//!    class is *Exact* (1.0); a specialization is *Subsumed* (decaying with
//!    semantic distance); a generalization is *PlugIn* (weaker still);
//!    anything else fails.
//! 2. **Hard constraints** — every
//!    [`Constraint`](crate::description::Constraint) must hold or the
//!    service is excluded (this is where ≤/≥/range/location go beyond
//!    Jini).
//! 3. **Preference score** — soft criteria are min-max normalized across
//!    the surviving candidates and averaged; the final score is
//!    `class_score × (0.5 + 0.5 × pref_score)`, so semantics dominate but
//!    preferences order services within a grade.

use crate::description::{Preference, ServiceDescription, ServiceRequest, Value};
use crate::ontology::Ontology;

/// How a service's class relates to the requested class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchGrade {
    /// Same class.
    Exact,
    /// Service class is a specialization of the request (safe substitute).
    Subsumed,
    /// Service class is a generalization (may work, weaker guarantee).
    PlugIn,
}

/// One ranked match.
#[derive(Debug, Clone)]
pub struct Match {
    /// Index of the service in the candidate slice handed to [`rank`].
    pub index: usize,
    /// Combined score in `(0, 1]`.
    pub score: f64,
    /// The class-relation grade.
    pub grade: MatchGrade,
    /// Class component of the score.
    pub class_score: f64,
    /// Preference component in `[0, 1]` (1.0 when no preferences given).
    pub pref_score: f64,
}

/// Per-hop decay of the class score with semantic distance.
const SUBSUME_DECAY: f64 = 0.9;
/// Grade ceiling for plug-in (generalization) matches.
const PLUGIN_WEIGHT: f64 = 0.6;

/// Grade + class score for one service against the requested class.
pub fn class_score(
    onto: &Ontology,
    request_class: crate::ontology::ClassId,
    service_class: crate::ontology::ClassId,
) -> Option<(MatchGrade, f64)> {
    if let Some(d) = onto.up_distance(service_class, request_class) {
        // Service is (a specialization of) what was asked for.
        return Some(if d == 0 {
            (MatchGrade::Exact, 1.0)
        } else {
            (MatchGrade::Subsumed, SUBSUME_DECAY.powi(d as i32))
        });
    }
    if let Some(d) = onto.up_distance(request_class, service_class) {
        // Service is more general than asked for.
        return Some((
            MatchGrade::PlugIn,
            PLUGIN_WEIGHT * SUBSUME_DECAY.powi(d as i32),
        ));
    }
    None
}

/// Raw value of one preference criterion for a service (lower is better
/// after the sign normalization applied here). `None` when the service
/// lacks the property — such services sink to the bottom of that criterion.
fn pref_raw(p: &Preference, svc: &ServiceDescription) -> Option<f64> {
    match p {
        Preference::Minimize(k) => svc.prop(k).and_then(Value::as_num),
        Preference::Maximize(k) => svc.prop(k).and_then(Value::as_num).map(|x| -x),
        Preference::Nearest(pt) => svc.location.map(|loc| loc.distance(pt)),
    }
}

/// Match and rank `services` against `request`. Returns matches sorted by
/// descending score (ties broken by ascending index, so the order is total
/// and deterministic).
pub fn rank(
    onto: &Ontology,
    request: &ServiceRequest,
    services: &[ServiceDescription],
) -> Vec<Match> {
    // Stage 1+2: class grade and hard constraints.
    let mut survivors: Vec<(usize, MatchGrade, f64)> = Vec::new();
    for (i, svc) in services.iter().enumerate() {
        let Some((grade, cscore)) = class_score(onto, request.class, svc.class) else {
            continue;
        };
        if request.constraints.iter().all(|c| c.satisfied_by(svc)) {
            survivors.push((i, grade, cscore));
        }
    }

    // Stage 3: min-max normalize each preference across survivors.
    let k = request.preferences.len();
    let mut pref_scores = vec![1.0f64; survivors.len()];
    if k > 0 && !survivors.is_empty() {
        let mut per_service = vec![0.0f64; survivors.len()];
        for p in &request.preferences {
            let raws: Vec<Option<f64>> = survivors
                .iter()
                .map(|&(i, _, _)| pref_raw(p, &services[i]))
                .collect();
            let known: Vec<f64> = raws.iter().flatten().copied().collect();
            let (lo, hi) = known
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            for (j, raw) in raws.iter().enumerate() {
                let s = match raw {
                    None => 0.0, // lacks the property: worst
                    Some(x) if hi > lo => 1.0 - (x - lo) / (hi - lo),
                    Some(_) => 1.0, // all equal
                };
                per_service[j] += s;
            }
        }
        for (j, total) in per_service.iter().enumerate() {
            pref_scores[j] = total / k as f64;
        }
    }

    let mut out: Vec<Match> = survivors
        .into_iter()
        .zip(pref_scores)
        .map(|((index, grade, class_score), pref_score)| Match {
            index,
            score: class_score * (0.5 + 0.5 * pref_score),
            grade,
            class_score,
            pref_score,
        })
        .collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::Constraint;
    use pg_net::geom::Point;

    fn onto() -> Ontology {
        Ontology::pervasive_grid()
    }

    fn printers(o: &Ontology) -> Vec<ServiceDescription> {
        let printer = o.class("PrinterService").unwrap();
        let color = o.class("ColorPrinterService").unwrap();
        let laser = o.class("LaserPrinterService").unwrap();
        vec![
            ServiceDescription::new("mono-laser", laser)
                .with_prop("queue_length", Value::Num(1.0))
                .with_prop("cost_per_page", Value::Num(0.05))
                .with_prop("color", Value::Bool(false))
                .with_location(Point::flat(50.0, 50.0)),
            ServiceDescription::new("lobby-color", color)
                .with_prop("queue_length", Value::Num(6.0))
                .with_prop("cost_per_page", Value::Num(0.25))
                .with_prop("color", Value::Bool(true))
                .with_location(Point::flat(5.0, 5.0)),
            ServiceDescription::new("lab-color", color)
                .with_prop("queue_length", Value::Num(2.0))
                .with_prop("cost_per_page", Value::Num(0.40))
                .with_prop("color", Value::Bool(true))
                .with_location(Point::flat(80.0, 10.0)),
            ServiceDescription::new("generic-printer", printer)
                .with_prop("queue_length", Value::Num(0.0))
                .with_prop("cost_per_page", Value::Num(0.08)),
        ]
    }

    #[test]
    fn exact_beats_subsumed_beats_plugin() {
        let o = onto();
        let req_printer = ServiceRequest::for_class(o.class("PrinterService").unwrap());
        let svcs = printers(&o);
        let ms = rank(&o, &req_printer, &svcs);
        assert_eq!(ms.len(), 4);
        // Exact match (generic-printer) outranks specializations with no
        // preferences in play.
        assert_eq!(ms[0].index, 3);
        assert_eq!(ms[0].grade, MatchGrade::Exact);
        assert!(ms.iter().skip(1).all(|m| m.grade == MatchGrade::Subsumed));

        // Asking for the specialization: the generic printer is a PlugIn.
        let req_color = ServiceRequest::for_class(o.class("ColorPrinterService").unwrap());
        let ms = rank(&o, &req_color, &svcs);
        let generic = ms.iter().find(|m| m.index == 3).unwrap();
        assert_eq!(generic.grade, MatchGrade::PlugIn);
        assert!(generic.score < ms[0].score);
    }

    /// The paper's own example: "a printer service that has the shortest
    /// print queue, that is geographically the closest, or that will print
    /// in color but only within a prespecified cost constraint."
    #[test]
    fn paper_printer_queries_work() {
        let o = onto();
        let svcs = printers(&o);
        let printer = o.class("PrinterService").unwrap();

        // Shortest queue.
        let req = ServiceRequest::for_class(printer)
            .with_preference(Preference::Minimize("queue_length".into()));
        assert_eq!(rank(&o, &req, &svcs)[0].index, 3); // queue 0

        // Geographically closest to the lobby door.
        let req = ServiceRequest::for_class(printer)
            .with_preference(Preference::Nearest(Point::flat(0.0, 0.0)));
        let top = &rank(&o, &req, &svcs)[0];
        assert_eq!(top.index, 1, "lobby-color at (5,5) is closest");

        // Color within a cost cap: only lobby-color (0.25 <= 0.30).
        let req = ServiceRequest::for_class(printer)
            .with_constraint(Constraint::Eq("color".into(), Value::Bool(true)))
            .with_constraint(Constraint::Le("cost_per_page".into(), 0.30));
        let ms = rank(&o, &req, &svcs);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].index, 1);
    }

    #[test]
    fn constraints_exclude_rather_than_demote() {
        let o = onto();
        let svcs = printers(&o);
        let req = ServiceRequest::for_class(o.class("PrinterService").unwrap())
            .with_constraint(Constraint::Le("cost_per_page".into(), 0.01));
        assert!(rank(&o, &req, &svcs).is_empty());
    }

    #[test]
    fn unrelated_classes_never_match() {
        let o = onto();
        let svcs = printers(&o);
        let req = ServiceRequest::for_class(o.class("TemperatureSensor").unwrap());
        assert!(rank(&o, &req, &svcs).is_empty());
    }

    #[test]
    fn scores_are_bounded_and_sorted() {
        let o = onto();
        let svcs = printers(&o);
        let req = ServiceRequest::for_class(o.class("Service").unwrap())
            .with_preference(Preference::Minimize("cost_per_page".into()))
            .with_preference(Preference::Minimize("queue_length".into()));
        let ms = rank(&o, &req, &svcs);
        assert_eq!(ms.len(), 4);
        for w in ms.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for m in &ms {
            assert!(m.score > 0.0 && m.score <= 1.0);
            assert!((0.0..=1.0).contains(&m.pref_score));
        }
    }

    #[test]
    fn missing_preference_property_sinks() {
        let o = onto();
        let printer = o.class("PrinterService").unwrap();
        let svcs = vec![
            ServiceDescription::new("no-loc", printer).with_prop("queue_length", Value::Num(0.0)),
            ServiceDescription::new("has-loc", printer)
                .with_prop("queue_length", Value::Num(9.0))
                .with_location(Point::flat(1.0, 1.0)),
        ];
        let req = ServiceRequest::for_class(printer)
            .with_preference(Preference::Nearest(Point::flat(0.0, 0.0)));
        let ms = rank(&o, &req, &svcs);
        assert_eq!(ms[0].index, 1, "the only located service must rank first");
    }
}
