//! Harness-side spans: one record per call into a layer, kept in memory
//! and written out when the workload ends. Spans inside the program are a
//! later change; these are taken around its public functions.

use std::collections::HashMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: String,
    /// One id per trial (batch) or per job (service).
    pub trace: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("name", Json::from(self.name.as_str())),
            ("trace", Json::Num(self.trace as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Span> {
        Some(Span {
            id: v.get("id")?.as_f64()? as u64,
            name: v.get("name")?.as_str()?.to_string(),
            trace: v.get("trace")?.as_f64()? as u64,
            parent: v.get("parent")?.as_f64()? as u64,
            start_ns: v.get("start_ns")?.as_f64()? as u64,
            end_ns: v.get("end_ns")?.as_f64()? as u64,
        })
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Disabled (the untraced run), every
/// call returns at once and nothing is kept.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            trace: 1,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(0, |i| self.spans[*i].id);
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            name: name.to_string(),
            trace: self.trace,
            parent,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Records an already-measured span (a job's submit → `Done`, seen by
    /// the poll loop) under the innermost open span, in its own trace.
    pub fn record(&mut self, name: &str, trace: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(0, |i| self.spans[*i].id);
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            name: name.to_string(),
            trace,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        });
    }

    pub fn finish(mut self) -> Vec<Span> {
        while !self.open.is_empty() {
            self.exit();
        }
        self.spans
    }
}

/// Shifts one trial's spans into the run's id space: span ids continue
/// after `id_base`, and trace ids (1 for the trial itself, ticket + 1 for
/// a service job) become unique per trial.
pub fn rebase(spans: &mut [Span], id_base: u64, trial: u64) {
    for s in spans {
        s.id += id_base;
        if s.parent != 0 {
            s.parent += id_base;
        }
        s.trace += trial * 1_000_000;
    }
}

/// Self time of every span, `(id, ns)`: its duration minus the part of it
/// that its child spans cover (overlapping children are not counted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for c in spans.iter().filter(|c| c.parent != 0) {
        children
            .entry(c.parent)
            .or_default()
            .push((c.start_ns, c.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|(a, b)| (*a.max(&s.start_ns), *b.min(&s.end_ns)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            trace: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // trial [0,100] ⊃ setup [10,40] ⊃ create [10,25]; run [30,90]
        // overlaps setup on [30,40]; a stray child pokes out past the end.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 10, 25),
            span(4, 1, 30, 90),
            span(5, 1, 95, 120),
        ];
        let st: HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&1], 100 - (80 + 5)); // [10,90] ∪ [95,100]
        assert_eq!(st[&2], 30 - 15);
        assert_eq!(st[&3], 15);
        assert_eq!(st[&4], 60);
        assert_eq!(st[&5], 25);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(true);
        r.enter("trial");
        r.enter("setup");
        r.exit();
        let t = Instant::now();
        r.record("job", 77, t, t);
        r.exit();
        let spans = r.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 1)
        );
        assert_eq!(spans[2].trace, 77);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut off = Recorder::new(false);
        off.enter("trial");
        off.exit();
        assert!(off.finish().is_empty());
    }

    #[test]
    fn rebase_keeps_ids_unique_and_round_trips_through_json() {
        let mut spans = vec![span(1, 0, 0, 9), span(2, 1, 1, 5)];
        spans[1].trace = 40;
        rebase(&mut spans, 1000, 6);
        assert_eq!(
            (spans[0].id, spans[0].parent, spans[0].trace),
            (1001, 0, 6_000_001)
        );
        assert_eq!(
            (spans[1].id, spans[1].parent, spans[1].trace),
            (1002, 1001, 6_000_040)
        );
        let back = Span::from_json(&Json::parse(&spans[1].to_json().to_string()).unwrap());
        assert_eq!(back.as_ref(), Some(&spans[1]));
    }
}
